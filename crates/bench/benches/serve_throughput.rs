//! Serving throughput: what a query costs through each `recurs-serve` path,
//! against the cold baseline a classification-unaware server would pay.
//!
//! Per workload (transitive closure over a chain; same generation over a
//! complete binary tree) and size, one bound query is answered three ways:
//!
//! * **cold** — saturate the whole database, then filter: the full-saturation
//!   fallback every query would pay without class-aware dispatch;
//! * **point** — the service with the cache disabled: each ask runs the
//!   dispatched point kernel (magic iteration for these A1 formulas, seeded
//!   with the query constant);
//! * **cached** — the service with the cache warm: each ask is a shared-`Arc`
//!   cache hit.
//!
//! Every path is asserted equal to the filtered oracle fixpoint before it is
//! timed. BENCH_serve.json records the baseline.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use recurs_datalog::eval::{answer_query, semi_naive};
use recurs_datalog::govern::EvalBudget;
use recurs_datalog::parser::{parse_atom, parse_program};
use recurs_datalog::relation::Relation;
use recurs_datalog::rule::LinearRecursion;
use recurs_datalog::term::Atom;
use recurs_datalog::validate::validate_with_generic_exit;
use recurs_datalog::Database;
use recurs_engine::{run_linear, EngineConfig};
use recurs_serve::{CacheOutcome, PointKernelKind, QueryService, ServeConfig};
use recurs_workload::graphs::chain;
use std::hint::black_box;
use std::time::Duration;

fn tc_formula() -> LinearRecursion {
    validate_with_generic_exit(
        &parse_program(
            "P(x, y) :- A(x, z), P(z, y).\n\
             P(x, y) :- E(x, y).",
        )
        .unwrap(),
    )
    .unwrap()
}

fn sg_formula() -> LinearRecursion {
    validate_with_generic_exit(
        &parse_program(
            "SG(x, y) :- Up(x, u), SG(u, v), Down(v, y).\n\
             SG(x, y) :- Flat(x, y).",
        )
        .unwrap(),
    )
    .unwrap()
}

fn tc_db(n: u64) -> Database {
    let mut db = Database::new();
    db.insert_relation("A", chain(n));
    db.insert_relation("E", chain(n));
    db
}

fn sg_db(n: u64) -> Database {
    let down: Vec<(u64, u64)> = (2..=n).map(|child| ((child - 2) / 2 + 1, child)).collect();
    let mut db = Database::new();
    db.insert_relation(
        "Up",
        Relation::from_pairs(down.iter().map(|&(p, c)| (c, p))),
    );
    db.insert_relation("Down", Relation::from_pairs(down));
    db.insert_relation("Flat", Relation::from_pairs([(1u64, 1u64)]));
    db
}

/// The cold baseline: saturate a clone of the whole database with the
/// indexed engine, then select/project the query — what every ask costs
/// without class-aware point dispatch.
fn cold_full_saturation(db: &Database, f: &LinearRecursion, query: &Atom) -> Relation {
    let mut db = db.clone();
    let config = EngineConfig {
        budget: EvalBudget::unlimited(),
        ..EngineConfig::default()
    };
    let sat = run_linear(&mut db, f, &config).unwrap();
    assert!(sat.outcome.is_complete());
    answer_query(&db, query).unwrap()
}

fn service(f: &LinearRecursion, db: &Database, cache: bool) -> QueryService {
    QueryService::new(
        f.clone(),
        db.clone(),
        ServeConfig {
            cache_capacity: if cache { 1024 } else { 0 },
            ..ServeConfig::default()
        },
    )
}

fn serve_sweep(
    c: &mut Criterion,
    group_name: &str,
    f: &LinearRecursion,
    cases: &[(u64, Database, Atom)],
) {
    let mut group = c.benchmark_group(group_name);
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(2));
    for (n, db, query) in cases {
        // Certify every path against the filtered oracle fixpoint.
        let mut oracle = db.clone();
        semi_naive(&mut oracle, &f.to_program(), None).unwrap();
        let expected = answer_query(&oracle, query).unwrap();
        assert_eq!(cold_full_saturation(db, f, query), expected);

        let point = service(f, db, false);
        assert_eq!(
            point.kernel_for(query),
            PointKernelKind::MagicIterate,
            "{group_name}/{n}: bound query must dispatch to the magic kernel"
        );
        let reply = point.query(query).unwrap();
        assert!(reply.outcome.is_complete());
        assert_eq!(*reply.answers, expected);

        let cached = service(f, db, true);
        cached.query(query).unwrap(); // warm
        let hit = cached.query(query).unwrap();
        assert_eq!(hit.stats.cache, CacheOutcome::Hit);
        assert_eq!(*hit.answers, expected);

        group.bench_with_input(BenchmarkId::new("cold", n), db, |b, db| {
            b.iter(|| black_box(cold_full_saturation(db, f, query)));
        });
        group.bench_with_input(BenchmarkId::new("point", n), &point, |b, s| {
            b.iter(|| black_box(s.query(query).unwrap()));
        });
        group.bench_with_input(BenchmarkId::new("cached", n), &cached, |b, s| {
            b.iter(|| black_box(s.query(query).unwrap()));
        });
    }
    group.finish();
}

fn tc_serving(c: &mut Criterion) {
    let f = tc_formula();
    let cases: Vec<(u64, Database, Atom)> = [200u64, 400, 800]
        .iter()
        .map(|&n| {
            // Midpoint source: the magic kernel only walks half the chain.
            let q = parse_atom(&format!("P({}, y)", n / 2)).unwrap();
            (n, tc_db(n), q)
        })
        .collect();
    serve_sweep(c, "serve_throughput_tc", &f, &cases);
}

fn sg_serving(c: &mut Criterion) {
    let f = sg_formula();
    let cases: Vec<(u64, Database, Atom)> = [255u64, 511, 1023]
        .iter()
        .map(|&n| (n, sg_db(n), parse_atom("SG(2, y)").unwrap()))
        .collect();
    serve_sweep(c, "serve_throughput_sg", &f, &cases);
}

criterion_group!(benches, tc_serving, sg_serving);
criterion_main!(benches);
