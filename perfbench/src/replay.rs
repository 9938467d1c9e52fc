//! The traced run: replays a workload's operations once per layer, each
//! pass on a twin built from the same dataset text, with a span around
//! every call into a layer's public functions.
//!
//! A layer's self time is paired by operation: for read `i`, the upper
//! layer's time minus the lower layer's time on the same line, reported as
//! a median over reads. The stack pass times each read first as the
//! workload sends it, then repeats it as a cache hit through every layer
//! from the socket down (`Client::roundtrip` → `handle_line_with` →
//! `query_traced` → `query`), so the pairs differ only by what the upper
//! layer adds.

use crate::drive::{load, roundtrip, Checker, Stack};
use crate::inputs::{Inputs, Op, Workload};
use crate::reference::Graph;
use crate::report::{mean, median, metric, Metric, Tally};
use recurs_datalog::eval::answer_query;
use recurs_datalog::fingerprint;
use recurs_datalog::parser::parse_atom;
use recurs_datalog::relation::{tuple_u64, Relation};
use recurs_datalog::symbol::Symbol;
use recurs_datalog::term::Atom;
use recurs_engine::EngineMode;
use recurs_ivm::{EdbDelta, FactOp, IdbPatch, Materialization};
use recurs_net::NetConfig;
use recurs_obs::trace::TraceWriter;
use recurs_obs::{Obs, SpanId, TraceCtx, TraceId};
use recurs_serve::cache::{canonical_query_key, CacheKey};
use recurs_serve::protocol::{handle_line_with, LineOptions};
use recurs_serve::{PointPlans, QueryPattern, SaturationCache, SnapshotStore, Version};
use std::collections::BTreeSet;
use std::fs::File;
use std::io::BufWriter;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// Repetitions of each hit in the stack pass; per-read medians are paired.
const LADDER: usize = 5;
/// Repetitions of the set-up layers (parser, plans).
const SETUP_REPS: usize = 5;
/// Bytes of trace kept in memory: several times the largest trace.
const TRACE_BUFFER: usize = 16 << 20;
/// Write pairs of the write phase replayed (`cold_reads`, `hot_reads`).
const TRACE_WRITE_PAIRS: usize = 10;

/// How many measured operations the replay covers: enough
/// reads for steady medians while the slowest pass stays well under a
/// minute.
fn measured_prefix(workload: Workload) -> usize {
    match workload {
        Workload::ColdReads => 40,
        Workload::HotReads => 200,
        Workload::ReadWrite => 120,
    }
}

/// The replayed sequence: the set-up warm-up, a prefix of the measured
/// phase, then the view warm-up and a prefix of the write phase.
fn replayed_ops(inputs: &Inputs) -> (Vec<Op>, Vec<Op>) {
    let measured = &inputs.measured;
    let n = measured_prefix(inputs.workload).min(measured.len());
    let phase = (2 * TRACE_WRITE_PAIRS).min(inputs.write_phase.len());
    let ops = measured[..n]
        .iter()
        .chain(&inputs.view_warmup)
        .chain(&inputs.write_phase[..phase])
        .copied()
        .collect();
    (inputs.warmup.clone(), ops)
}

/// Runs `f` inside a span of `ctx` under `parent`; returns its value and
/// its time in µs. The span is emitted after the time is taken, so writing
/// the trace line stays out of the measurement.
fn timed<T>(ctx: &TraceCtx, name: &'static str, parent: SpanId, f: impl FnOnce() -> T) -> (T, f64) {
    let span = ctx.span(name, parent);
    let start = Instant::now();
    let value = f();
    let us = start.elapsed().as_secs_f64() * 1e6;
    span.finish();
    (value, us)
}

fn atom(key: u64) -> Atom {
    parse_atom(&format!("P({key}, y)")).expect("a generated query parses")
}

fn fact_ops(op: Op) -> Vec<FactOp> {
    let Op::Write { from, to, delete } = op else {
        return Vec::new();
    };
    ["A", "E"]
        .into_iter()
        .map(|p| {
            let (sym, t) = (Symbol::intern(p), tuple_u64([from, to]));
            if delete {
                FactOp::Delete(sym, t)
            } else {
                FactOp::Insert(sym, t)
            }
        })
        .collect()
}

fn answer_keys(rel: &Relation) -> BTreeSet<u64> {
    rel.iter()
        .filter_map(|t| t.first().and_then(|v| v.as_str().parse().ok()))
        .collect()
}

/// Trace ids of the passes, one trace per pass.
const STACK: u64 = 1;
const KERNEL: u64 = 2;
const VIEW: u64 = 3;
const SNAPSHOT: u64 = 4;
const CACHE: u64 = 5;
const SETUP: u64 = 6;

/// Everything the passes measured.
#[derive(Default)]
struct Layers {
    net_roundtrip_us: Vec<f64>,
    net_self_us: Vec<f64>,
    protocol_self_us: Vec<f64>,
    reply_bytes: Vec<f64>,
    trace_us: Vec<f64>,
    hit_us: Vec<f64>,
    admission_wait_us: Vec<f64>,
    hits: u64,
    lookups: u64,
    kernel_ms: Vec<f64>,
    copy_ms: Vec<f64>,
    kernel_derived: Vec<f64>,
    kernel_answers: Vec<f64>,
    kernel_iterations: Vec<f64>,
    saturate_s: f64,
    view_tuples: f64,
    apply_ms: Vec<f64>,
    idb_changed: Vec<f64>,
    view_ms: Vec<f64>,
    view_rows: f64,
    view_answers: f64,
    delta_ms: Vec<f64>,
    advance_ms: Vec<f64>,
    load_ms: Vec<f64>,
    plans_ms: Vec<f64>,
}

/// The full stack over TCP, one connection.
fn stack_pass(
    inputs: &Inputs,
    warmup: &[Op],
    ops: &[Op],
    obs: &Obs,
    layers: &mut Layers,
    tally: &mut Tally,
) -> Result<(), String> {
    let ctx = TraceCtx::new(obs, TraceId::from_u64(STACK));
    let root = ctx.root("pass.stack");
    let mut stack = Stack::start(&inputs.text)?;
    let service = Arc::clone(&stack.service);
    let budget = service.default_budget().clone();
    let net = NetConfig::default();
    let opts = LineOptions {
        budget: Some(budget.clone()),
        max_queue_wait: Some(net.max_queue_wait),
        retry_after_ms: net.retry_after_ms,
        trace: None,
    };
    let mut checker = Checker::new(&inputs.edges);
    let client = &mut stack.client;
    for &op in warmup {
        let (_, reply) = roundtrip(client, &op.line());
        tally.record(reply.and_then(|r| checker.check(op, &r)));
    }
    for &op in ops {
        let op_span = ctx.span(if op.is_read() { "op.read" } else { "op.write" }, root.id());
        let line = op.line();
        let (reply, us) = timed(&ctx, "net.roundtrip", op_span.id(), || {
            roundtrip(client, &line).1
        });
        if let Ok(r) = &reply {
            if op.is_read() {
                layers.net_roundtrip_us.push(us);
                // Up to the `stats` object: its timings vary from run to
                // run, the answers part does not.
                let answer_part = r.find(",\"stats\":").unwrap_or(r.len());
                layers.reply_bytes.push(answer_part as f64);
                layers.lookups += 1;
                if recurs_net::proto::json_str_field(r, "cache") == Some("hit") {
                    layers.hits += 1;
                }
            }
        }
        tally.record(reply.and_then(|r| checker.check(op, &r)));
        if let Op::Read(key) = op {
            let q = atom(key);
            let (mut net, mut proto, mut traced, mut query) = (vec![], vec![], vec![], vec![]);
            for _ in 0..LADDER {
                net.push(
                    timed(&ctx, "net.roundtrip.hit", op_span.id(), || {
                        roundtrip(client, &line)
                    })
                    .1,
                );
                proto.push(
                    timed(&ctx, "protocol.handle_line_with", op_span.id(), || {
                        handle_line_with(&service, &line, &opts)
                    })
                    .1,
                );
                traced.push(
                    timed(&ctx, "serve.query_traced", op_span.id(), || {
                        service.query_traced(&q, &budget, opts.max_queue_wait, TraceId::mint())
                    })
                    .1,
                );
                let (reply, us) = timed(&ctx, "serve.query", op_span.id(), || service.query(&q));
                query.push(us);
                if let Ok(r) = reply {
                    layers
                        .admission_wait_us
                        .push(r.stats.queue_wait.as_secs_f64() * 1e6);
                }
            }
            let (net, proto, traced, query) = (
                median(&net),
                median(&proto),
                median(&traced),
                median(&query),
            );
            layers.net_self_us.push(net - proto);
            layers.protocol_self_us.push(proto - traced);
            layers.trace_us.push(traced - query);
            layers.hit_us.push(query);
        }
    }
    stack.stop()?;
    Ok(())
}

/// `PointPlans::answer` on the snapshot database, and the snapshot copy
/// the magic kernel makes on every read.
fn kernel_pass(
    inputs: &Inputs,
    warmup: &[Op],
    ops: &[Op],
    obs: &Obs,
    layers: &mut Layers,
) -> Result<bool, String> {
    let ctx = TraceCtx::new(obs, TraceId::from_u64(KERNEL));
    let root = ctx.root("pass.kernel");
    let (lr, mut db) = load(&inputs.text)?;
    let plans = PointPlans::new(lr);
    let budget = recurs_datalog::govern::EvalBudget::unlimited();
    let noop = Obs::noop();
    let mut graph = Graph::new(&inputs.edges);
    let mut correct = true;
    // Build the lazy magic plan before timing, as set-up does.
    if let Some(&(k, _)) = inputs.edges.first() {
        plans
            .answer(&db, &atom(k), &budget, EngineMode::Indexed, &noop)
            .map_err(|e| format!("kernel: {e}"))?;
    }
    for &op in warmup.iter().filter(|op| !op.is_read()).chain(ops) {
        match op {
            Op::Read(key) => {
                let q = atom(key);
                let (copy, us) = timed(&ctx, "database.clone", root.id(), || db.clone());
                drop(copy);
                layers.copy_ms.push(us / 1e3);
                let (answer, us) = timed(&ctx, "kernel.answer", root.id(), || {
                    plans.answer(&db, &q, &budget, EngineMode::Indexed, &noop)
                });
                let answer = answer.map_err(|e| format!("kernel: {e}"))?;
                layers.kernel_ms.push(us / 1e3);
                layers.kernel_derived.push(answer.tuples_derived as f64);
                layers.kernel_answers.push(answer.answers.len() as f64);
                layers
                    .kernel_iterations
                    .push(answer.fixpoint_iterations as f64);
                correct &= answer_keys(&answer.answers) == graph.reachable(key);
            }
            Op::Write { .. } => {
                let delta = EdbDelta::normalize(&fact_ops(op), &db).map_err(|e| e.to_string())?;
                delta.apply_to(&mut db).map_err(|e| e.to_string())?;
                graph.apply(op);
            }
        }
    }
    Ok(correct)
}

/// The materialized view: saturation, `Materialization::apply` per write
/// and `answer_query` per read. Returns whether every answer was right and
/// each write's IDB patch, for the cache pass.
fn view_pass(
    inputs: &Inputs,
    warmup: &[Op],
    ops: &[Op],
    obs: &Obs,
    layers: &mut Layers,
) -> Result<(bool, Vec<Option<IdbPatch>>), String> {
    let ctx = TraceCtx::new(obs, TraceId::from_u64(VIEW));
    let root = ctx.root("pass.view");
    let (lr, mut edb) = load(&inputs.text)?;
    let budget = recurs_datalog::govern::EvalBudget::unlimited();
    let (mat, us) = timed(&ctx, "ivm.saturate", root.id(), || {
        Materialization::saturate(&lr, &edb, &budget, &Obs::noop())
    });
    let mut mat = mat.map_err(|e| format!("saturate: {e}"))?;
    layers.saturate_s = us / 1e6;
    layers.view_tuples = mat.relation().len() as f64;
    let mut graph = Graph::new(&inputs.edges);
    let mut correct = true;
    let mut patches = Vec::new();
    for &op in warmup.iter().filter(|op| !op.is_read()).chain(ops) {
        match op {
            Op::Read(key) => {
                let q = atom(key);
                let (rel, us) = timed(&ctx, "view.answer_query", root.id(), || {
                    answer_query(mat.database(), &q)
                });
                let rel = rel.map_err(|e| format!("view: {e}"))?;
                layers.view_ms.push(us / 1e3);
                // Not a measured count: `answer_query` exposes none. It
                // copies the whole view relation and selects from the copy,
                // so the rows it examines are the view's size.
                layers.view_rows += mat.relation().len() as f64;
                layers.view_answers += rel.len() as f64;
                correct &= answer_keys(&rel) == graph.reachable(key);
            }
            Op::Write { .. } => {
                let delta = EdbDelta::normalize(&fact_ops(op), &edb).map_err(|e| e.to_string())?;
                delta.apply_to(&mut edb).map_err(|e| e.to_string())?;
                let (report, us) =
                    timed(&ctx, "ivm.apply", root.id(), || mat.apply(&delta, &budget));
                let report = report.map_err(|e| format!("ivm: {e}"))?;
                layers.apply_ms.push(us / 1e3);
                layers
                    .idb_changed
                    .push((report.stats.idb_inserted + report.stats.idb_deleted) as f64);
                patches.push(report.idb);
                graph.apply(op);
            }
        }
    }
    Ok((correct, patches))
}

/// `SnapshotStore::apply_delta` on a standalone store.
fn snapshot_pass(
    inputs: &Inputs,
    writes: &[Op],
    obs: &Obs,
    layers: &mut Layers,
) -> Result<(), String> {
    let ctx = TraceCtx::new(obs, TraceId::from_u64(SNAPSHOT));
    let root = ctx.root("pass.snapshot");
    let store = SnapshotStore::new(load(&inputs.text)?.1);
    for &op in writes {
        let ops = fact_ops(op);
        let (res, us) = timed(&ctx, "snapshot.apply_delta", root.id(), || {
            store.apply_delta(&ops)
        });
        res.map_err(|e| format!("snapshot: {e}"))?;
        layers.delta_ms.push(us / 1e3);
    }
    Ok(())
}

/// `SaturationCache::advance` over the entries of every key the replay
/// reads, carried through each write's IDB patch.
fn cache_pass(
    inputs: &Inputs,
    ops: &[Op],
    patches: &[Option<IdbPatch>],
    obs: &Obs,
    layers: &mut Layers,
) -> Result<(), String> {
    let ctx = TraceCtx::new(obs, TraceId::from_u64(CACHE));
    let root = ctx.root("pass.cache");
    let (lr, _) = load(&inputs.text)?;
    let program = fingerprint::of_program(&lr.to_program());
    let cache = SaturationCache::new(1024, 8);
    let graph = Graph::new(&inputs.edges);
    let keys: BTreeSet<u64> = ops
        .iter()
        .filter_map(|op| match op {
            Op::Read(k) => Some(*k),
            Op::Write { .. } => None,
        })
        .collect();
    for key in keys {
        let q = atom(key);
        let answers =
            Relation::from_tuples(1, graph.reachable(key).into_iter().map(|y| tuple_u64([y])));
        let entry = CacheKey {
            program,
            version: Version::from(0),
            query: canonical_query_key(&q),
        };
        cache.insert(entry, Arc::new(answers), QueryPattern::of(&q));
    }
    for (v, patch) in patches.iter().enumerate() {
        let Some(patch) = patch else { continue };
        let (from, to) = (Version::from(v as u64), Version::from(v as u64 + 1));
        let ((), us) = timed(&ctx, "cache.advance", root.id(), || {
            cache.advance(from, to, patch)
        });
        layers.advance_ms.push(us / 1e3);
    }
    Ok(())
}

/// The set-up layers: parsing the dataset text, and building the plans.
fn setup_pass(inputs: &Inputs, obs: &Obs, layers: &mut Layers) -> Result<(), String> {
    let ctx = TraceCtx::new(obs, TraceId::from_u64(SETUP));
    let root = ctx.root("pass.setup");
    for _ in 0..SETUP_REPS {
        let (loaded, us) = timed(&ctx, "parser.load", root.id(), || load(&inputs.text));
        let (lr, _) = loaded?;
        layers.load_ms.push(us / 1e3);
        let (_, us) = timed(&ctx, "core.plans", root.id(), || PointPlans::new(lr));
        layers.plans_ms.push(us / 1e3);
    }
    Ok(())
}

fn trace_path(inputs: &Inputs) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!(
            "trace-{}-seed{}.jsonl",
            inputs.workload.name(),
            inputs.seed
        ))
}

/// The traced run: every per-layer metric, from one pass per layer.
pub fn run(inputs: &Inputs) -> Result<(bool, Tally, Vec<Metric>), String> {
    let (warmup, ops) = replayed_ops(inputs);
    let writes: Vec<Op> = warmup
        .iter()
        .chain(&ops)
        .copied()
        .filter(|op| !op.is_read())
        .collect();
    let path = trace_path(inputs);
    let trace_err = |e: std::io::Error| format!("writing {}: {e}", path.display());
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(trace_err)?;
    }
    // A buffer that holds the whole trace, so spans stay in memory and
    // reach the file when the run ends.
    let file = File::create(&path).map_err(trace_err)?;
    let buffered = BufWriter::with_capacity(TRACE_BUFFER, file);
    let writer = Arc::new(TraceWriter::new(Box::new(buffered)));
    let obs = Obs::new(writer.clone());
    let mut layers = Layers::default();
    let mut tally = Tally::default();
    setup_pass(inputs, &obs, &mut layers)?;
    stack_pass(inputs, &warmup, &ops, &obs, &mut layers, &mut tally)?;
    let kernel_ok = kernel_pass(inputs, &warmup, &ops, &obs, &mut layers)?;
    let (view_ok, patches) = view_pass(inputs, &warmup, &ops, &obs, &mut layers)?;
    snapshot_pass(inputs, &writes, &obs, &mut layers)?;
    cache_pass(inputs, &ops, &patches, &obs, &mut layers)?;
    writer.flush();
    if writer.had_error() {
        return Err(format!("writing {} failed", path.display()));
    }
    println!("trace {}", path.display());

    let l = &layers;
    let sum = |v: &[f64]| v.iter().sum::<f64>();
    let metrics = vec![
        metric("net.roundtrip_us", median(&l.net_roundtrip_us), "us"),
        metric("net.self_us", median(&l.net_self_us), "us"),
        metric("protocol.self_us", median(&l.protocol_self_us), "us"),
        metric("protocol.reply_bytes", mean(&l.reply_bytes), "bytes"),
        metric("obs.trace_us", median(&l.trace_us), "us"),
        metric("cache.hit_us", median(&l.hit_us), "us"),
        metric("cache.hits", l.hits as f64, "count"),
        metric("cache.lookups", l.lookups as f64, "count"),
        metric(
            "cache.hit_ratio",
            l.hits as f64 / l.lookups.max(1) as f64,
            "ratio",
        ),
        metric("cache.advance_ms", median(&l.advance_ms), "ms"),
        metric("admission.wait_us", mean(&l.admission_wait_us), "us"),
        metric("kernel.answer_ms", median(&l.kernel_ms), "ms"),
        metric("kernel.tuples_derived", mean(&l.kernel_derived), "count"),
        metric("kernel.answers", mean(&l.kernel_answers), "count"),
        metric("kernel.iterations", mean(&l.kernel_iterations), "count"),
        metric(
            "kernel.derived_per_answer",
            sum(&l.kernel_derived) / sum(&l.kernel_answers),
            "ratio",
        ),
        metric("snapshot.copy_ms", median(&l.copy_ms), "ms"),
        metric("snapshot.delta_ms", median(&l.delta_ms), "ms"),
        metric("ivm.apply_ms", median(&l.apply_ms), "ms"),
        metric("ivm.idb_changed", mean(&l.idb_changed), "count"),
        metric("ivm.saturate_s", l.saturate_s, "s"),
        metric("view.tuples", l.view_tuples, "count"),
        metric("view.answer_ms", median(&l.view_ms), "ms"),
        metric(
            "view.rows_per_answer",
            l.view_rows / l.view_answers,
            "ratio",
        ),
        metric("parser.load_ms", median(&l.load_ms), "ms"),
        metric("core.plans_ms", median(&l.plans_ms), "ms"),
    ];
    Ok((tally.failed() == 0 && kernel_ok && view_ok, tally, metrics))
}
