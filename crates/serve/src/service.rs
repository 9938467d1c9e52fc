//! The long-lived query service: snapshots + kernels + cache + admission.

use crate::admission::{Permit, Semaphore};
use crate::cache::{canonical_query_key, CacheKey, QueryPattern, SaturationCache};
use crate::error::ServeError;
use crate::kernel::{PointKernelKind, PointPlans};
use crate::snapshot::{Snapshot, SnapshotStore, SnapshotUpdate};
use crate::stats::{CacheOutcome, ServeStats, ServiceStats};
use crate::version::Version;
use recurs_core::Classification;
use recurs_datalog::database::Database;
use recurs_datalog::error::DatalogError;
use recurs_datalog::eval::answer_query;
use recurs_datalog::fingerprint::{self, Fingerprint};
use recurs_datalog::govern::{EvalBudget, Outcome};
use recurs_datalog::relation::Relation;
use recurs_datalog::symbol::Symbol;
use recurs_datalog::term::Atom;
use recurs_engine::EngineMode;
use recurs_igraph::component::ComponentKind;
use recurs_ivm::{
    explain_fact, verify_tree, DerivationNode, EdbDelta, FactOp, IdbPatch, Materialization,
    WhyOutcome,
};
use recurs_obs::aggregate::Aggregator;
use recurs_obs::{field, FlightRecorder, Obs, SpanId, TraceCtx, TraceId};
use serde::{Serialize as _, Value};
use std::sync::{Arc, PoisonError, RwLock};
use std::time::{Duration, Instant};

/// Service configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Maximum concurrent evaluations (admission semaphore permits).
    pub max_concurrent: usize,
    /// Total answer-cache capacity in entries; 0 disables the cache.
    pub cache_capacity: usize,
    /// Number of cache shards (locks).
    pub cache_shards: usize,
    /// Default per-query budget (queries may override it).
    pub budget: EvalBudget,
    /// External observability sink. The service always maintains its own
    /// metric [`Aggregator`] (backing [`QueryService::stats`] and
    /// [`QueryService::metrics_text`]); a recorder supplied here receives
    /// the same counter/histogram/event stream in addition.
    pub obs: Obs,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            max_concurrent: 4,
            cache_capacity: 1024,
            cache_shards: 8,
            budget: EvalBudget::unlimited(),
            obs: Obs::noop(),
        }
    }
}

/// One answered query: the (shared) answer relation plus per-query stats.
#[derive(Debug)]
pub struct Reply {
    /// The answers, over the query's distinct variables in first-occurrence
    /// order. Shared: cache hits hand out the same allocation.
    pub answers: Arc<Relation>,
    /// Complete, or soundly truncated.
    pub outcome: Outcome,
    /// What the query cost.
    pub stats: ServeStats,
    /// The request-scoped trace id, when the query ran under a trace
    /// context ([`QueryService::query_traced`]).
    pub trace: Option<TraceId>,
}

/// What [`QueryService::apply_update`] did.
#[derive(Debug)]
pub enum UpdateOutcome {
    /// Every operation was a no-op (duplicate insert, absent delete, or a
    /// cancelling pair): nothing changed and the version did not move.
    Unchanged {
        /// The still-current version.
        version: Version,
    },
    /// A new snapshot version was installed.
    Installed {
        /// The newly installed snapshot.
        snapshot: Arc<Snapshot>,
        /// Net EDB tuples inserted.
        inserted: usize,
        /// Net EDB tuples deleted.
        deleted: usize,
        /// How the materialized view absorbed the change — a
        /// [`MaintenancePath`](recurs_ivm::MaintenancePath) label
        /// (`"bounded-recount"`, `"frontier"`, `"generic-dred"`,
        /// `"cold-fallback"`), `"saturate"` when the view was (re)built from
        /// scratch, or `"none"` when no view could be maintained.
        maintenance: &'static str,
    },
}

/// The incrementally maintained fixpoint, tagged with the snapshot version
/// it is exact for.
#[derive(Debug)]
struct ViewState {
    version: Version,
    mat: Materialization,
}

/// A thread-safe, long-lived query service for one linear recursion.
///
/// Readers call [`QueryService::query`] concurrently from any number of
/// threads; writers install new fact snapshots with
/// [`QueryService::apply_update`] (incrementally maintained) or
/// [`QueryService::update`] (generic edits) without blocking in-flight
/// readers (copy-on-write snapshot isolation). Completed answers are cached
/// per `(program, snapshot version, adorned query)`; truncated answers never
/// are.
#[derive(Debug)]
pub struct QueryService {
    plans: PointPlans,
    program_fingerprint: Fingerprint,
    store: SnapshotStore,
    cache: Option<SaturationCache>,
    /// Lazily built on the first [`QueryService::apply_update`]; patched in
    /// place by every one after. Queries read it when its version matches
    /// their snapshot. Dropped by generic [`QueryService::update`] edits.
    view: RwLock<Option<ViewState>>,
    admission: Semaphore,
    metrics: Arc<Aggregator>,
    /// Always-on ring of recent events, dumped on panic or forced drain.
    flight: Arc<FlightRecorder>,
    obs: Obs,
    budget: EvalBudget,
}

impl QueryService {
    /// Builds a service for `lr` over an initial database (version 0).
    /// Classification and the bounded plan are computed once, here.
    pub fn new(
        lr: recurs_datalog::rule::LinearRecursion,
        db: Database,
        config: ServeConfig,
    ) -> QueryService {
        let plans = PointPlans::new(lr);
        let program_fingerprint = fingerprint::of_program(&plans.recursion().to_program());
        // The service's own aggregator is always attached (it backs
        // `stats()` and `!metrics`), as is the flight recorder (it backs
        // postmortem dumps); an external recorder from the config sees the
        // same stream through the fan-out.
        let metrics = Arc::new(Aggregator::default());
        let flight = Arc::new(FlightRecorder::default());
        let mut sinks: Vec<Arc<dyn recurs_obs::Recorder>> = vec![metrics.clone(), flight.clone()];
        if let Some(external) = config.obs.recorder() {
            sinks.push(external);
        }
        let obs = Obs::fanout(sinks);
        QueryService {
            plans,
            program_fingerprint,
            store: SnapshotStore::new(db),
            cache: (config.cache_capacity > 0).then(|| {
                SaturationCache::with_obs(config.cache_capacity, config.cache_shards, obs.clone())
            }),
            view: RwLock::new(None),
            admission: Semaphore::new(config.max_concurrent),
            metrics,
            flight,
            obs,
            budget: config.budget,
        }
    }

    /// The classification driving point-kernel dispatch.
    pub fn classification(&self) -> &Classification {
        self.plans.classification()
    }

    /// Stable fingerprint of the served program.
    pub fn program_fingerprint(&self) -> Fingerprint {
        self.program_fingerprint
    }

    /// The current snapshot (cheap; never blocks on evaluation).
    pub fn snapshot(&self) -> Arc<Snapshot> {
        self.store.load()
    }

    /// Installs the next snapshot version copy-on-write and invalidates the
    /// cache entries of every dead version. In-flight readers keep their
    /// version; queries admitted after this returns see the new one.
    ///
    /// This is the *generic* edit path: the change is arbitrary, so the
    /// materialized view is dropped and warm cache entries cannot be
    /// carried. For ground fact batches prefer
    /// [`QueryService::apply_update`], which maintains both incrementally.
    pub fn update(
        &self,
        edit: impl FnOnce(&mut Database) -> Result<(), DatalogError>,
    ) -> Result<Arc<Snapshot>, ServeError> {
        let snap = self.store.update(edit)?;
        *self.view.write().unwrap_or_else(PoisonError::into_inner) = None;
        if let Some(cache) = &self.cache {
            cache.retain_version(snap.version());
        }
        self.obs
            .counter("recurs_serve_snapshot_updates_total", &[], 1);
        if self.obs.enabled() {
            self.obs.event(
                "serve.snapshot",
                &[("version", field::u(snap.version().get()))],
            );
        }
        Ok(snap)
    }

    /// Applies a group of ground fact operations atomically: the group's net
    /// delta is normalized against the current snapshot (duplicate inserts
    /// and absent deletes are no-ops; an all-no-op group returns
    /// [`UpdateOutcome::Unchanged`] without bumping the version), the next
    /// snapshot is installed copy-on-write, and the materialized view plus
    /// every warm cache entry are *patched in place* through counting /
    /// DRed maintenance instead of being recomputed or dropped.
    ///
    /// Operations on the recursive predicate are rejected — it is derived,
    /// never stored.
    pub fn apply_update(&self, ops: &[FactOp]) -> Result<UpdateOutcome, ServeError> {
        let served = self.plans.recursion().predicate;
        if let Some(op) = ops.iter().find(|op| op.predicate() == served) {
            return Err(ServeError::DerivedUpdate(op.predicate()));
        }
        let start = Instant::now();
        match self.store.apply_delta(ops)? {
            SnapshotUpdate::Unchanged(snap) => {
                self.record_update("unchanged", start, snap.version(), 0, 0);
                Ok(UpdateOutcome::Unchanged {
                    version: snap.version(),
                })
            }
            SnapshotUpdate::Installed {
                previous,
                snapshot,
                delta,
            } => {
                let (maintenance, idb) = self.maintain_view(&snapshot, previous, &delta);
                if let Some(cache) = &self.cache {
                    match &idb {
                        Some(patch) => cache.advance(previous, snapshot.version(), patch),
                        None => cache.retain_version(snapshot.version()),
                    }
                }
                self.obs
                    .counter("recurs_serve_snapshot_updates_total", &[], 1);
                let (inserted, deleted) = (delta.inserted_count(), delta.deleted_count());
                self.record_update(maintenance, start, snapshot.version(), inserted, deleted);
                Ok(UpdateOutcome::Installed {
                    snapshot,
                    inserted,
                    deleted,
                    maintenance,
                })
            }
        }
    }

    /// Patches (or lazily builds) the materialized view for a just-installed
    /// snapshot. Returns the maintenance label and the exact IDB patch when
    /// one exists (`None` after a cold fallback or a fresh build — the cache
    /// cannot be carried then). Never fails: a substrate error degrades to
    /// "no view" and the update stands.
    fn maintain_view(
        &self,
        snapshot: &Snapshot,
        previous: Version,
        delta: &EdbDelta,
    ) -> (&'static str, Option<IdbPatch>) {
        let mut guard = self.view.write().unwrap_or_else(PoisonError::into_inner);
        if let Some(mut vs) = guard.take() {
            if vs.version == previous {
                match vs.mat.apply(delta, &self.budget) {
                    Ok(report) => {
                        vs.version = snapshot.version();
                        let label = report.path.label();
                        *guard = Some(vs);
                        return (label, report.idb);
                    }
                    Err(_) => return ("none", None),
                }
            }
            // A stale view (generic edits interleaved) is rebuilt below.
        }
        match Materialization::saturate(
            self.plans.recursion(),
            snapshot.database(),
            &self.budget,
            &self.obs,
        ) {
            Ok(mat) => {
                *guard = Some(ViewState {
                    version: snapshot.version(),
                    mat,
                });
                ("saturate", None)
            }
            Err(_) => ("none", None),
        }
    }

    /// Feeds one applied update into the recorder: the per-result update
    /// counter and latency histogram, and a `serve.update` event.
    fn record_update(
        &self,
        result: &'static str,
        start: Instant,
        version: Version,
        inserted: usize,
        deleted: usize,
    ) {
        if !self.obs.enabled() {
            return;
        }
        let elapsed = start.elapsed();
        self.obs
            .counter("recurs_serve_updates_total", &[("result", result)], 1);
        self.obs.observe(
            "recurs_serve_update_seconds",
            &[("result", result)],
            elapsed.as_secs_f64(),
        );
        self.obs.event(
            "serve.update",
            &[
                ("result", field::s(result)),
                ("version", field::u(version.get())),
                ("inserted", field::uz(inserted)),
                ("deleted", field::uz(deleted)),
                ("eval_us", field::us(elapsed)),
            ],
        );
    }

    /// Answers a query under the service's default budget.
    pub fn query(&self, query: &Atom) -> Result<Reply, ServeError> {
        self.query_with_budget(query, &self.budget.clone())
    }

    /// Answers a query under a caller-supplied budget. The reply's outcome
    /// is `Complete`, or `Truncated` with the answers being a sound
    /// under-approximation.
    pub fn query_with_budget(
        &self,
        query: &Atom,
        budget: &EvalBudget,
    ) -> Result<Reply, ServeError> {
        let (permit, queue_wait) = self.admission.acquire();
        self.query_admitted(query, budget, permit, queue_wait, None)
    }

    /// Answers a query under a request-scoped trace context: every event
    /// the evaluation emits (admission, cache probe, kernel dispatch)
    /// carries `trace`, and the request is decomposed into hierarchical
    /// `span` events (`request` → `admission`/`cache`/`view`/`eval`/
    /// `cache_store`) that `obsctl` reassembles into a timing tree.
    ///
    /// `max_wait = None` queues unboundedly (the stdin behavior); `Some`
    /// bounds the admission wait and sheds with
    /// [`ServeError::Overloaded`] past it, like
    /// [`QueryService::query_bounded`].
    pub fn query_traced(
        &self,
        query: &Atom,
        budget: &EvalBudget,
        max_wait: Option<Duration>,
        trace: TraceId,
    ) -> Result<Reply, ServeError> {
        let ctx = TraceCtx::new(&self.obs, trace);
        let root = ctx.root("request");
        let root_id = root.id();
        let admitted = {
            let _adm = ctx.span("admission", root_id);
            match max_wait {
                None => Some(self.admission.acquire()),
                Some(wait) => self.admission.try_acquire_for(wait),
            }
        };
        match admitted {
            Some((permit, queue_wait)) => {
                self.query_admitted(query, budget, permit, queue_wait, Some((&ctx, root_id)))
            }
            None => {
                let waited = max_wait.unwrap_or_default();
                ctx.obs().counter("recurs_serve_queries_shed_total", &[], 1);
                if ctx.obs().enabled() {
                    ctx.obs()
                        .event("serve.shed", &[("max_wait_us", field::us(waited))]);
                }
                Err(ServeError::Overloaded { waited })
            }
        }
    }

    /// Answers a query like [`QueryService::query_with_budget`], but waits
    /// at most `max_wait` for an evaluation slot. When no slot frees up in
    /// time the request is *shed* with [`ServeError::Overloaded`] — it was
    /// never evaluated and is safe to retry. This is the admission path the
    /// network front end uses: queues stay bounded and overload turns into
    /// an explicit, typed signal instead of unbounded latency.
    pub fn query_bounded(
        &self,
        query: &Atom,
        budget: &EvalBudget,
        max_wait: std::time::Duration,
    ) -> Result<Reply, ServeError> {
        match self.admission.try_acquire_for(max_wait) {
            Some((permit, queue_wait)) => {
                self.query_admitted(query, budget, permit, queue_wait, None)
            }
            None => {
                self.obs.counter("recurs_serve_queries_shed_total", &[], 1);
                if self.obs.enabled() {
                    self.obs
                        .event("serve.shed", &[("max_wait_us", field::us(max_wait))]);
                }
                Err(ServeError::Overloaded { waited: max_wait })
            }
        }
    }

    /// The post-admission query path: cache probe, view/kernel dispatch,
    /// caching, and stats. Holds `_permit` for the whole evaluation. When a
    /// trace context is supplied (`tr` = context + parent span), every
    /// emission goes through its scoped handle and each phase is wrapped in
    /// a child span.
    fn query_admitted(
        &self,
        query: &Atom,
        budget: &EvalBudget,
        _permit: Permit<'_>,
        queue_wait: std::time::Duration,
        tr: Option<(&TraceCtx, SpanId)>,
    ) -> Result<Reply, ServeError> {
        let obs = tr.map_or(&self.obs, |(ctx, _)| ctx.obs());
        let trace = tr.map(|(ctx, _)| ctx.id());
        obs.observe(
            "recurs_serve_admission_wait_seconds",
            &[],
            queue_wait.as_secs_f64(),
        );
        let snapshot = self.store.load();
        let kernel = self.plans.select(query);
        let start = Instant::now();

        let key = self.cache.as_ref().map(|_| CacheKey {
            program: self.program_fingerprint,
            version: snapshot.version(),
            query: canonical_query_key(query),
        });
        let cached = if let (Some(cache), Some(key)) = (&self.cache, &key) {
            let _probe = tr.map(|(ctx, parent)| ctx.span("cache", parent));
            cache.get(key)
        } else {
            None
        };
        if let Some(answers) = cached {
            let stats = ServeStats {
                queue_wait,
                eval: start.elapsed(),
                cache: CacheOutcome::Hit,
                kernel,
                outcome: Outcome::Complete,
                answers: answers.len(),
                tuples_derived: 0,
                fixpoint_iterations: 0,
                snapshot_version: snapshot.version().get(),
            };
            self.record_query(obs, &stats);
            return Ok(Reply {
                answers,
                outcome: Outcome::Complete,
                stats,
                trace,
            });
        }

        // The maintained view answers with a plain select/project — no
        // evaluation at all — whenever its version matches the snapshot.
        let view_answers = {
            let _view = tr.map(|(ctx, parent)| ctx.span("view", parent));
            self.view_answers(&snapshot, query)?
        };
        let (answers, outcome, kernel, tuples_derived, fixpoint_iterations) = match view_answers {
            Some(answers) => (
                Arc::new(answers),
                Outcome::Complete,
                PointKernelKind::MaterializedView,
                0,
                0,
            ),
            None => {
                let _eval = tr.map(|(ctx, parent)| ctx.span("eval", parent));
                let point = self
                    .plans
                    .answer(snapshot.database(), query, budget, EngineMode::Indexed, obs)
                    .inspect_err(|_| {
                        obs.counter("recurs_serve_query_errors_total", &[], 1);
                    })?;
                (
                    Arc::new(point.answers),
                    point.outcome,
                    point.kernel,
                    point.tuples_derived,
                    point.fixpoint_iterations,
                )
            }
        };
        // Only complete answers are cacheable: a truncated answer depends on
        // the budget that truncated it.
        if let (Some(cache), Some(key), true) = (&self.cache, key, outcome.is_complete()) {
            let _store = tr.map(|(ctx, parent)| ctx.span("cache_store", parent));
            cache.insert(key, answers.clone(), QueryPattern::of(query));
        }
        let stats = ServeStats {
            queue_wait,
            eval: start.elapsed(),
            cache: if self.cache.is_some() {
                CacheOutcome::Miss
            } else {
                CacheOutcome::Bypass
            },
            kernel,
            outcome,
            answers: answers.len(),
            tuples_derived,
            fixpoint_iterations,
            snapshot_version: snapshot.version().get(),
        };
        self.record_query(obs, &stats);
        Ok(Reply {
            answers,
            outcome,
            stats,
            trace,
        })
    }

    /// Select/project over the maintained view, when it exists and is exact
    /// for the query's snapshot (and the query is for the served predicate
    /// at the right arity — anything else falls through to the kernels,
    /// which own the error taxonomy).
    fn view_answers(
        &self,
        snapshot: &Snapshot,
        query: &Atom,
    ) -> Result<Option<Relation>, ServeError> {
        let lr = self.plans.recursion();
        if query.predicate != lr.predicate || query.arity() != lr.recursive_rule.head.arity() {
            return Ok(None);
        }
        let guard = self.view.read().unwrap_or_else(PoisonError::into_inner);
        match &*guard {
            Some(vs) if vs.version == snapshot.version() => {
                Ok(Some(answer_query(vs.mat.database(), query)?))
            }
            _ => Ok(None),
        }
    }

    /// Feeds one answered query into the recorder: the per-kernel latency
    /// histogram, the labelled query counter, the summed-cost counters the
    /// derived [`ServiceStats`] view reads back, and a `serve.query` event.
    /// `obs` is the (possibly trace-scoped) handle the request runs under.
    fn record_query(&self, obs: &Obs, stats: &ServeStats) {
        if !obs.enabled() {
            return;
        }
        let kernel = stats.kernel.family();
        let cache = stats.cache.label();
        let outcome = if stats.outcome.is_complete() {
            "complete"
        } else {
            "truncated"
        };
        obs.counter(
            "recurs_serve_queries_total",
            &[("kernel", kernel), ("cache", cache), ("outcome", outcome)],
            1,
        );
        obs.observe(
            "recurs_serve_query_seconds",
            &[("kernel", kernel)],
            stats.eval.as_secs_f64(),
        );
        obs.counter(
            "recurs_serve_queue_wait_us_total",
            &[],
            stats.queue_wait.as_micros() as u64,
        );
        obs.counter(
            "recurs_serve_eval_us_total",
            &[],
            stats.eval.as_micros() as u64,
        );
        obs.counter(
            "recurs_serve_tuples_derived_total",
            &[],
            stats.tuples_derived as u64,
        );
        let mut fields = vec![
            ("kernel", field::s(stats.kernel.label())),
            ("cache", field::s(cache)),
            ("outcome", field::s(outcome)),
            ("queue_wait_us", field::us(stats.queue_wait)),
            ("eval_us", field::us(stats.eval)),
            ("answers", field::uz(stats.answers)),
            ("tuples_derived", field::uz(stats.tuples_derived)),
            ("fixpoint_iterations", field::uz(stats.fixpoint_iterations)),
            ("snapshot_version", field::u(stats.snapshot_version)),
        ];
        if let Some(reason) = stats.outcome.truncation() {
            fields.push(("truncation", field::s(reason.to_string())));
        }
        obs.event("serve.query", &fields);
    }

    /// Which kernel the dispatcher would select for a query.
    pub fn kernel_for(&self, query: &Atom) -> PointKernelKind {
        self.plans.select(query)
    }

    /// The service's observability handle: the fan-out feeding both the
    /// service's own metric aggregator (behind [`QueryService::stats`] and
    /// `!metrics`) and any external recorder from the config. Layers built
    /// on top of the service (the TCP front end) record through this handle
    /// so their counters land in the same exposition.
    pub fn obs(&self) -> &Obs {
        &self.obs
    }

    /// The default per-query budget from the service config. Callers that
    /// derive per-request budgets (e.g. deadline-scoped network requests)
    /// start from this and tighten it.
    pub fn default_budget(&self) -> &EvalBudget {
        &self.budget
    }

    /// A point-in-time snapshot of the service-wide statistics, derived by
    /// reading the service's metric aggregator back — the same recorder the
    /// trace events and `!metrics` exposition are fed from, so the two
    /// views can never disagree.
    pub fn stats(&self) -> ServiceStats {
        let snapshot = self.store.load();
        let m = &self.metrics;
        let q = "recurs_serve_queries_total";
        ServiceStats {
            queries: m.counter_where(q, &[]),
            complete: m.counter_where(q, &[("outcome", "complete")]),
            truncated: m.counter_where(q, &[("outcome", "truncated")]),
            errors: m.counter_value("recurs_serve_query_errors_total", &[]),
            kernel_bounded: m.counter_where(q, &[("kernel", "bounded")]),
            kernel_magic: m.counter_where(q, &[("kernel", "magic")]),
            kernel_saturate: m.counter_where(q, &[("kernel", "saturate")]),
            kernel_materialized: m.counter_where(q, &[("kernel", "materialized")]),
            queue_wait_us: m.counter_value("recurs_serve_queue_wait_us_total", &[]),
            eval_us: m.counter_value("recurs_serve_eval_us_total", &[]),
            tuples_derived: m.counter_value("recurs_serve_tuples_derived_total", &[]),
            cache: self
                .cache
                .as_ref()
                .map(SaturationCache::counters)
                .unwrap_or_default(),
            snapshot_version: snapshot.version().get(),
            snapshot_updates: m.counter_value("recurs_serve_snapshot_updates_total", &[]),
            updates_unchanged: m
                .counter_where("recurs_serve_updates_total", &[("result", "unchanged")]),
        }
    }

    /// The service's metrics in Prometheus text exposition format,
    /// terminated by a `# EOF` line (which the `!metrics` protocol command
    /// uses as its framing marker).
    pub fn metrics_text(&self) -> String {
        self.metrics.prometheus_text()
    }

    /// The service-wide statistics as a JSON object (single line).
    pub fn stats_json(&self) -> String {
        serde::json::to_string(&self.stats())
    }

    /// Number of live cache entries (0 when the cache is disabled).
    pub fn cache_len(&self) -> usize {
        self.cache.as_ref().map_or(0, SaturationCache::len)
    }

    /// The flight recorder's retained events as JSON lines — the postmortem
    /// payload a front end writes to disk when a worker panics or a drain
    /// is forced. Same shape as the trace sink, so `obsctl` reads it.
    pub fn postmortem_jsonl(&self) -> String {
        self.flight.to_jsonl()
    }

    /// Answers a query under a trace context *and* audits the plan: the
    /// reply is a JSON object carrying the classification verdict (with
    /// per-component I-graph cycle weights), which kernel ran and why, how
    /// the cache participated, the budget ceilings and headroom, and the
    /// request's span breakdown — whose root span covers the measured
    /// latency. This is the `!explain <query>` protocol command.
    pub fn explain(
        &self,
        query: &Atom,
        budget: &EvalBudget,
        max_wait: Option<Duration>,
        trace: TraceId,
    ) -> Result<Value, ServeError> {
        // Fan the request's emissions out to the normal sinks *plus* a
        // private capture, so the span breakdown can be read back without
        // requiring a trace file to be configured.
        let capture = Arc::new(recurs_obs::CaptureRecorder::new());
        let mut sinks: Vec<Arc<dyn recurs_obs::Recorder>> = Vec::with_capacity(2);
        if let Some(inner) = self.obs.recorder() {
            sinks.push(inner);
        }
        sinks.push(capture.clone());
        let base = Obs::fanout(sinks);
        let ctx = TraceCtx::new(&base, trace);

        let started = Instant::now();
        let reply = {
            let root = ctx.root("request");
            let root_id = root.id();
            let admitted = {
                let _adm = ctx.span("admission", root_id);
                match max_wait {
                    None => Some(self.admission.acquire()),
                    Some(wait) => self.admission.try_acquire_for(wait),
                }
            };
            match admitted {
                Some((permit, queue_wait)) => {
                    self.query_admitted(query, budget, permit, queue_wait, Some((&ctx, root_id)))?
                }
                None => {
                    return Err(ServeError::Overloaded {
                        waited: max_wait.unwrap_or_default(),
                    })
                }
            }
        };
        let measured_us = started.elapsed().as_micros() as u64;

        let spans: Vec<Value> = capture
            .events_of("span")
            .iter()
            .map(|e| {
                Value::object([
                    ("name", Value::string(e.text("name").unwrap_or("?"))),
                    ("span", Value::UInt(e.uint("span").unwrap_or(0))),
                    ("parent", Value::UInt(e.uint("parent").unwrap_or(0))),
                    ("start_us", Value::UInt(e.uint("start_us").unwrap_or(0))),
                    ("dur_us", Value::UInt(e.uint("dur_us").unwrap_or(0))),
                ])
            })
            .collect();

        let stats = &reply.stats;
        let kernel_reason = match (stats.cache, stats.kernel) {
            (CacheOutcome::Hit, _) => {
                "answered from the saturation cache for this snapshot version; no kernel ran"
                    .to_string()
            }
            (_, PointKernelKind::BoundedUnroll { rank }) => format!(
                "proven rank bound {rank}: the answer is the union of {} non-recursive \
                 unrolled levels, so no fixpoint loop runs",
                rank + 1
            ),
            (_, PointKernelKind::MagicIterate) => {
                "one-directional recursion with a bound argument: magic-sets iteration \
                 seeded from the query constants"
                    .to_string()
            }
            (_, PointKernelKind::MaterializedView) => {
                "the maintained materialized view is exact for this snapshot version: \
                 plain select/project, no evaluation"
                    .to_string()
            }
            (_, PointKernelKind::FullSaturation) => {
                "no proven rank bound and no usable binding: governed full saturation, \
                 then select/project"
                    .to_string()
            }
        };
        let iters = stats.fixpoint_iterations;
        let tuples = stats.tuples_derived;
        let budget_v = Value::object([
            (
                "timeout_ms",
                budget
                    .timeout
                    .map_or(Value::Null, |d| Value::UInt(d.as_millis() as u64)),
            ),
            ("max_tuples", opt_uz(budget.max_tuples)),
            ("max_iterations", opt_uz(budget.max_iterations)),
            ("spent_iterations", Value::UInt(iters as u64)),
            ("spent_tuples", Value::UInt(tuples as u64)),
            (
                "iterations_left",
                opt_uz(budget.max_iterations.map(|c| c.saturating_sub(iters))),
            ),
            (
                "tuples_left",
                opt_uz(budget.max_tuples.map(|c| c.saturating_sub(tuples))),
            ),
        ]);
        let audit = Value::object([
            ("ok", Value::Bool(true)),
            ("type", Value::string("explain")),
            ("trace", Value::string(trace.to_string())),
            ("query", Value::string(format!("{query}"))),
            (
                "classification",
                classification_value(self.classification()),
            ),
            (
                "kernel",
                Value::object([
                    ("choice", Value::string(stats.kernel.label())),
                    ("family", Value::string(stats.kernel.family())),
                    ("reason", Value::string(kernel_reason)),
                ]),
            ),
            (
                "cache",
                Value::object([
                    ("outcome", stats.cache.to_value()),
                    ("snapshot_version", stats.snapshot_version.to_value()),
                    ("entries", self.cache_len().to_value()),
                ]),
            ),
            ("budget", budget_v),
            ("outcome", stats.outcome.to_value()),
            ("answers", stats.answers.to_value()),
            (
                "queue_wait_us",
                (stats.queue_wait.as_micros() as u64).to_value(),
            ),
            ("measured_us", Value::UInt(measured_us)),
            ("spans", Value::Array(spans)),
        ]);
        if self.obs.enabled() {
            ctx.obs().event(
                "serve.explain",
                &[
                    ("kernel", field::s(stats.kernel.label())),
                    ("cache", field::s(stats.cache.label())),
                    ("measured_us", field::u(measured_us)),
                ],
            );
        }
        Ok(audit)
    }

    /// Explains why a ground fact of the served predicate is (or is not)
    /// derivable over the current snapshot: a depth-bounded backward
    /// reconstruction of a derivation tree, seeded from the maintained
    /// view's derivation counts when the view is exact for the snapshot,
    /// and cross-checked structurally before it is returned. This is the
    /// `why <fact>` protocol command and `run --why`.
    pub fn why(
        &self,
        predicate: Symbol,
        tuple: &recurs_datalog::relation::Tuple,
        max_depth: u64,
        budget: &EvalBudget,
    ) -> Result<Value, ServeError> {
        let lr = self.plans.recursion();
        if predicate != lr.predicate {
            return Err(ServeError::WrongPredicate {
                got: predicate,
                serves: lr.predicate,
            });
        }
        let start = Instant::now();
        let snapshot = self.store.load();
        // The maintained view's derivation counts are an O(1) oracle for
        // membership: count 0 short-circuits the reconstruction entirely.
        let view_count = {
            let guard = self.view.read().unwrap_or_else(PoisonError::into_inner);
            match &*guard {
                Some(vs) if vs.version == snapshot.version() => Some(vs.mat.count(tuple)),
                _ => None,
            }
        };
        let fact = render_fact(predicate, tuple);
        let outcome = if view_count == Some(0) {
            WhyOutcome::NotDerived
        } else {
            explain_fact(lr, snapshot.database(), tuple, max_depth, budget)?
        };
        let elapsed = start.elapsed();
        let mut fields = vec![
            ("ok", Value::Bool(true)),
            ("type", Value::string("why")),
            ("fact", Value::string(&fact)),
            ("snapshot_version", Value::UInt(snapshot.version().get())),
            ("view_seeded", Value::Bool(view_count.is_some())),
        ];
        let derived;
        match outcome {
            WhyOutcome::Derived(tree) => {
                // A tree that fails the structural check is a provenance
                // bug, not a client error — refuse to present it.
                if let Err(defect) = verify_tree(lr, snapshot.database(), &tree) {
                    if self.obs.enabled() {
                        self.obs.event(
                            "serve.why",
                            &[("fact", field::s(&fact)), ("defect", field::s(defect))],
                        );
                    }
                    return Err(ServeError::Engine(recurs_engine::EngineError::Internal(
                        "derivation tree failed structural verification",
                    )));
                }
                derived = true;
                fields.push(("derived", Value::Bool(true)));
                fields.push(("depth", Value::UInt(tree.depth() as u64)));
                fields.push(("size", Value::UInt(tree.size() as u64)));
                fields.push(("tree", tree_value(&tree)));
            }
            WhyOutcome::NotDerived => {
                derived = false;
                fields.push(("derived", Value::Bool(false)));
            }
            WhyOutcome::DepthExceeded { rank, max_depth } => {
                derived = true;
                fields.push(("derived", Value::Bool(true)));
                fields.push(("truncated", Value::Bool(true)));
                fields.push(("rank", Value::UInt(rank)));
                fields.push(("max_depth", Value::UInt(max_depth)));
            }
        }
        if self.obs.enabled() {
            self.obs.event(
                "serve.why",
                &[
                    ("fact", field::s(fact)),
                    ("derived", field::b(derived)),
                    ("eval_us", field::us(elapsed)),
                ],
            );
        }
        Ok(Value::Object(
            fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        ))
    }
}

/// `Some(n)` → JSON number, `None` → JSON null.
fn opt_uz(v: Option<usize>) -> Value {
    v.map_or(Value::Null, |n| Value::UInt(n as u64))
}

/// Renders `pred(c1, c2)` for a ground tuple.
fn render_fact(predicate: Symbol, tuple: &recurs_datalog::relation::Tuple) -> String {
    let args: Vec<&str> = tuple.iter().map(|v| v.as_str()).collect();
    format!("{predicate}({})", args.join(", "))
}

/// The classification verdict as JSON, mirroring the CLI's
/// `classify.verdict` event: overall class, per-component class labels with
/// I-graph cycle counts and (for independent cycles) weight/directionality,
/// and the proven rank bound when one exists.
fn classification_value(c: &Classification) -> Value {
    let mut class_iter = c.component_classes.iter();
    let components: Vec<Value> = c
        .components
        .iter()
        .filter(|comp| comp.is_nontrivial())
        .map(|comp| {
            let label = class_iter.next().map_or("?", |cl| cl.label());
            let mut fields = vec![
                ("class", Value::string(label)),
                ("cycles", Value::UInt(comp.cycles.len() as u64)),
            ];
            if let ComponentKind::IndependentCycle(cy) = &comp.kind {
                fields.push(("weight", Value::UInt(cy.magnitude())));
                fields.push(("one_directional", Value::Bool(cy.one_directional)));
                fields.push(("rotational", Value::Bool(cy.rotational)));
            }
            Value::object(fields)
        })
        .collect();
    let mut fields = vec![
        ("class", Value::string(c.class.label())),
        ("components", Value::Array(components)),
        (
            "one_directional",
            Value::Bool(c.is_transformable_to_stable()),
        ),
    ];
    if let Some(rank) = c.rank_bound() {
        fields.push(("rank_bound", Value::UInt(rank)));
    }
    Value::object(fields)
}

/// A derivation tree as nested JSON: `{"fact":"P(1, 2)","rule":
/// "recursive","children":[...]}` with leaves labelled `"edb"` and exit
/// rules `"exit[i]"`.
fn tree_value(node: &DerivationNode) -> Value {
    let rule = match node.rule {
        None => "edb".to_string(),
        Some(0) => "recursive".to_string(),
        Some(i) => format!("exit[{}]", i - 1),
    };
    Value::object([
        ("fact", Value::string(node.fact())),
        ("rule", Value::string(rule)),
        (
            "children",
            Value::Array(node.children.iter().map(tree_value).collect()),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use recurs_datalog::parser::{parse_atom, parse_program};
    use recurs_datalog::relation::tuple_u64;
    use recurs_datalog::validate::validate_with_generic_exit;

    fn tc_service(n: u64, config: ServeConfig) -> QueryService {
        let lr = validate_with_generic_exit(
            &parse_program("P(x, y) :- A(x, z), P(z, y).\nP(x, y) :- E(x, y).").unwrap(),
        )
        .unwrap();
        let mut db = Database::new();
        db.insert_relation("A", Relation::from_pairs((1..n).map(|i| (i, i + 1))));
        db.insert_relation("E", Relation::from_pairs((1..n).map(|i| (i, i + 1))));
        QueryService::new(lr, db, config)
    }

    #[test]
    fn repeated_query_hits_the_cache() {
        let service = tc_service(10, ServeConfig::default());
        let q = parse_atom("P(1, y)").unwrap();
        let first = service.query(&q).unwrap();
        assert_eq!(first.stats.cache, CacheOutcome::Miss);
        let second = service.query(&q).unwrap();
        assert_eq!(second.stats.cache, CacheOutcome::Hit);
        assert_eq!(first.answers, second.answers);
        // Alpha-equivalent query shares the entry.
        let renamed = parse_atom("P(1, z)").unwrap();
        assert_eq!(
            service.query(&renamed).unwrap().stats.cache,
            CacheOutcome::Hit
        );
        let stats = service.stats();
        assert_eq!(stats.cache.hits, 2);
        assert_eq!(stats.cache.misses, 1);
    }

    #[test]
    fn disabled_cache_reports_bypass() {
        let service = tc_service(
            6,
            ServeConfig {
                cache_capacity: 0,
                ..ServeConfig::default()
            },
        );
        let q = parse_atom("P(1, y)").unwrap();
        assert_eq!(service.query(&q).unwrap().stats.cache, CacheOutcome::Bypass);
        assert_eq!(service.query(&q).unwrap().stats.cache, CacheOutcome::Bypass);
        assert_eq!(service.cache_len(), 0);
    }

    #[test]
    fn update_installs_version_and_invalidates_cache() {
        let service = tc_service(5, ServeConfig::default());
        let q = parse_atom("P(1, y)").unwrap();
        let before = service.query(&q).unwrap();
        assert_eq!(before.stats.snapshot_version, 0);
        assert!(service.cache_len() > 0);
        // Extend the chain: 5 → 6.
        service
            .update(|db| {
                db.insert("A", tuple_u64([5, 6]))?;
                db.insert("E", tuple_u64([5, 6]))?;
                Ok(())
            })
            .unwrap();
        assert_eq!(service.cache_len(), 0, "stale entries must be invalidated");
        let after = service.query(&q).unwrap();
        assert_eq!(after.stats.cache, CacheOutcome::Miss);
        assert_eq!(after.stats.snapshot_version, 1);
        assert_eq!(after.answers.len(), before.answers.len() + 1);
    }

    #[test]
    fn noop_update_reports_unchanged_without_version_bump() {
        let service = tc_service(5, ServeConfig::default());
        let q = parse_atom("P(1, y)").unwrap();
        service.query(&q).unwrap();
        assert!(service.cache_len() > 0);
        let a = recurs_datalog::symbol::Symbol::intern("A");
        let ops = vec![FactOp::Insert(a, tuple_u64([1, 2]))]; // already present
        match service.apply_update(&ops).unwrap() {
            UpdateOutcome::Unchanged { version } => assert_eq!(version, 0),
            other => panic!("expected Unchanged, got {other:?}"),
        }
        // Same version, so the warm entry still hits.
        assert_eq!(service.query(&q).unwrap().stats.cache, CacheOutcome::Hit);
        let stats = service.stats();
        assert_eq!(stats.snapshot_version, 0);
        assert_eq!(stats.snapshot_updates, 0);
        assert_eq!(stats.updates_unchanged, 1);
    }

    #[test]
    fn apply_update_patches_view_and_cache_in_place() {
        let service = tc_service(5, ServeConfig::default());
        let a = recurs_datalog::symbol::Symbol::intern("A");
        let e = recurs_datalog::symbol::Symbol::intern("E");
        // First fact update builds the view cold (no patch to carry yet).
        let ops = vec![
            FactOp::Insert(a, tuple_u64([5, 6])),
            FactOp::Insert(e, tuple_u64([5, 6])),
        ];
        match service.apply_update(&ops).unwrap() {
            UpdateOutcome::Installed {
                inserted,
                deleted,
                maintenance,
                ..
            } => {
                assert_eq!((inserted, deleted), (2, 0));
                assert_eq!(maintenance, "saturate");
            }
            other => panic!("expected Installed, got {other:?}"),
        }
        // Warm the cache at version 1, then update again: the entry must be
        // patched across the version bump, not dropped.
        let q = parse_atom("P(1, y)").unwrap();
        let before = service.query(&q).unwrap();
        assert_eq!(before.stats.cache, CacheOutcome::Miss);
        let ops = vec![
            FactOp::Insert(a, tuple_u64([6, 7])),
            FactOp::Insert(e, tuple_u64([6, 7])),
        ];
        match service.apply_update(&ops).unwrap() {
            UpdateOutcome::Installed { maintenance, .. } => assert_eq!(maintenance, "frontier"),
            other => panic!("expected Installed, got {other:?}"),
        }
        let after = service.query(&q).unwrap();
        assert_eq!(after.stats.cache, CacheOutcome::Hit, "entry was carried");
        assert_eq!(after.stats.snapshot_version, 2);
        assert_eq!(after.answers.len(), before.answers.len() + 1);
        assert!(service.stats().cache.patched > 0);
        // Deletion maintains too: drop the chain tail again.
        let ops = vec![
            FactOp::Delete(a, tuple_u64([6, 7])),
            FactOp::Delete(e, tuple_u64([6, 7])),
        ];
        service.apply_update(&ops).unwrap();
        let shrunk = service.query(&q).unwrap();
        assert_eq!(shrunk.stats.cache, CacheOutcome::Hit);
        assert_eq!(shrunk.answers.len(), before.answers.len());
    }

    #[test]
    fn materialized_view_answers_fresh_queries_without_evaluation() {
        let service = tc_service(6, ServeConfig::default());
        let e = recurs_datalog::symbol::Symbol::intern("E");
        service
            .apply_update(&[FactOp::Insert(e, tuple_u64([1, 6]))])
            .unwrap();
        // Fresh query, cache miss, but the view is exact for this version.
        let q = parse_atom("P(2, y)").unwrap();
        let reply = service.query(&q).unwrap();
        assert_eq!(reply.stats.cache, CacheOutcome::Miss);
        assert_eq!(reply.stats.kernel, PointKernelKind::MaterializedView);
        assert_eq!(reply.stats.tuples_derived, 0);
        assert_eq!(reply.answers.len(), 4); // 3, 4, 5, 6
        assert_eq!(service.stats().kernel_materialized, 1);
        // And the answer was admitted to the cache like any complete answer.
        assert_eq!(service.query(&q).unwrap().stats.cache, CacheOutcome::Hit);
    }

    #[test]
    fn updates_to_the_derived_predicate_are_rejected() {
        let service = tc_service(5, ServeConfig::default());
        let p = recurs_datalog::symbol::Symbol::intern("P");
        let err = service
            .apply_update(&[FactOp::Insert(p, tuple_u64([1, 5]))])
            .unwrap_err();
        assert!(err.to_string().contains("derived"), "got {err}");
        assert_eq!(service.stats().snapshot_version, 0);
    }

    #[test]
    fn generic_update_still_invalidates_and_drops_the_view() {
        let service = tc_service(5, ServeConfig::default());
        let e = recurs_datalog::symbol::Symbol::intern("E");
        service
            .apply_update(&[FactOp::Insert(e, tuple_u64([1, 5]))])
            .unwrap();
        let q = parse_atom("P(1, y)").unwrap();
        service.query(&q).unwrap();
        assert!(service.cache_len() > 0);
        // A closure edit is opaque: no patch, no view.
        service
            .update(|db| db.insert("E", tuple_u64([2, 5])).map(|_| ()))
            .unwrap();
        assert_eq!(service.cache_len(), 0);
        let reply = service.query(&q).unwrap();
        assert_ne!(reply.stats.kernel, PointKernelKind::MaterializedView);
        // The next fact update rebuilds the view from the new snapshot.
        match service
            .apply_update(&[FactOp::Insert(e, tuple_u64([3, 5]))])
            .unwrap()
        {
            UpdateOutcome::Installed { maintenance, .. } => assert_eq!(maintenance, "saturate"),
            other => panic!("expected Installed, got {other:?}"),
        }
    }

    #[test]
    fn update_events_pin_the_taxonomy() {
        let capture = std::sync::Arc::new(recurs_obs::CaptureRecorder::new());
        let service = tc_service(
            5,
            ServeConfig {
                obs: recurs_obs::Obs::new(capture.clone()),
                ..ServeConfig::default()
            },
        );
        let a = recurs_datalog::symbol::Symbol::intern("A");
        let e = recurs_datalog::symbol::Symbol::intern("E");
        service
            .apply_update(&[
                FactOp::Insert(a, tuple_u64([5, 6])),
                FactOp::Insert(e, tuple_u64([5, 6])),
            ])
            .unwrap();
        service
            .apply_update(&[FactOp::Delete(e, tuple_u64([5, 6]))])
            .unwrap();
        service
            .apply_update(&[FactOp::Insert(a, tuple_u64([1, 2]))]) // no-op
            .unwrap();
        let updates = capture.events_of("serve.update");
        assert_eq!(updates.len(), 3);
        assert_eq!(updates[0].text("result"), Some("saturate"));
        assert_eq!(updates[0].uint("version"), Some(1));
        assert_eq!(updates[0].uint("inserted"), Some(2));
        assert_eq!(updates[1].text("result"), Some("frontier"));
        assert_eq!(updates[1].uint("deleted"), Some(1));
        assert_eq!(updates[2].text("result"), Some("unchanged"));
        assert_eq!(updates[2].uint("version"), Some(2));
        // The counter taxonomy matches the events, and the maintenance layer
        // reported its patch through the same recorder.
        assert_eq!(
            capture.counter_where("recurs_serve_updates_total", &[("result", "unchanged")]),
            1
        );
        assert_eq!(
            capture.counter_where("recurs_serve_updates_total", &[("result", "frontier")]),
            1
        );
        assert_eq!(capture.events_of("ivm.patch").len(), 1);
        assert_eq!(capture.events_of("ivm.saturate").len(), 1);
    }

    #[test]
    fn truncated_answers_are_not_cached() {
        let service = tc_service(30, ServeConfig::default());
        let q = parse_atom("P(1, y)").unwrap();
        let tight = EvalBudget::unlimited().with_max_iterations(2);
        let reply = service.query_with_budget(&q, &tight).unwrap();
        assert!(!reply.outcome.is_complete());
        assert_eq!(service.cache_len(), 0);
        // The next (unbudgeted) query must not see the truncated answer.
        let full = service.query(&q).unwrap();
        assert_eq!(full.stats.cache, CacheOutcome::Miss);
        assert!(full.outcome.is_complete());
        assert!(full.answers.len() > reply.answers.len());
    }

    #[test]
    fn external_recorder_sees_query_and_snapshot_events() {
        let capture = std::sync::Arc::new(recurs_obs::CaptureRecorder::new());
        let service = tc_service(
            8,
            ServeConfig {
                obs: recurs_obs::Obs::new(capture.clone()),
                ..ServeConfig::default()
            },
        );
        let q = parse_atom("P(1, y)").unwrap();
        service.query(&q).unwrap();
        service.query(&q).unwrap();
        service
            .update(|db| {
                db.insert("A", tuple_u64([8, 9]))?;
                Ok(())
            })
            .unwrap();
        let queries = capture.events_of("serve.query");
        assert_eq!(queries.len(), 2);
        assert_eq!(queries[0].text("cache"), Some("miss"));
        assert_eq!(queries[1].text("cache"), Some("hit"));
        assert_eq!(queries[0].text("outcome"), Some("complete"));
        assert_eq!(queries[0].uint("snapshot_version"), Some(0));
        let snaps = capture.events_of("serve.snapshot");
        assert_eq!(snaps.len(), 1);
        assert_eq!(snaps[0].uint("version"), Some(1));
        // The external recorder sees the same counters the derived
        // ServiceStats view reads from the service's own aggregator.
        assert_eq!(capture.counter_where("recurs_serve_queries_total", &[]), 2);
        assert_eq!(
            capture.counter_where("recurs_serve_cache_ops_total", &[("op", "hit")]),
            1
        );
    }

    #[test]
    fn derived_stats_match_the_recorder_stream() {
        let service = tc_service(10, ServeConfig::default());
        let q1 = parse_atom("P(1, y)").unwrap();
        let q2 = parse_atom("P(2, y)").unwrap();
        service.query(&q1).unwrap();
        service.query(&q1).unwrap(); // hit
        service.query(&q2).unwrap();
        let stats = service.stats();
        assert_eq!(stats.queries, 3);
        assert_eq!(stats.complete, 3);
        assert_eq!(stats.truncated, 0);
        assert_eq!(stats.kernel_magic, 3);
        assert_eq!(stats.cache.hits, 1);
        assert_eq!(stats.cache.misses, 2);
        // The Prometheus exposition is fed by the same aggregator.
        let text = service.metrics_text();
        assert!(text.contains("recurs_serve_queries_total"));
        assert!(text.ends_with("# EOF\n"));
    }

    #[test]
    fn traced_query_emits_spans_and_trace_tagged_events() {
        let capture = std::sync::Arc::new(recurs_obs::CaptureRecorder::new());
        let service = tc_service(
            8,
            ServeConfig {
                obs: recurs_obs::Obs::new(capture.clone()),
                ..ServeConfig::default()
            },
        );
        let q = parse_atom("P(1, y)").unwrap();
        let trace = TraceId::from_u64(0xabcd);
        let reply = service
            .query_traced(&q, &EvalBudget::unlimited(), None, trace)
            .unwrap();
        assert_eq!(reply.trace, Some(trace));
        // The request decomposed into spans, all under one root.
        let spans = capture.events_of("span");
        let names: Vec<_> = spans.iter().filter_map(|e| e.text("name")).collect();
        assert!(names.contains(&"request"), "spans: {names:?}");
        assert!(names.contains(&"admission"), "spans: {names:?}");
        assert!(names.contains(&"cache"), "spans: {names:?}");
        assert!(names.contains(&"eval"), "spans: {names:?}");
        assert!(names.contains(&"cache_store"), "spans: {names:?}");
        for span in &spans {
            assert_eq!(span.text("trace"), Some("000000000000abcd"));
        }
        // The request's serve.query event carries the same trace id.
        let queries = capture.events_of("serve.query");
        assert_eq!(queries.len(), 1);
        assert_eq!(queries[0].text("trace"), Some("000000000000abcd"));
        // A second traced query hits the cache: no eval span this time.
        let reply = service
            .query_traced(&q, &EvalBudget::unlimited(), None, TraceId::from_u64(1))
            .unwrap();
        assert_eq!(reply.stats.cache, CacheOutcome::Hit);
        let hit_spans: Vec<_> = capture
            .events_of("span")
            .iter()
            .filter(|e| e.text("trace") == Some("0000000000000001"))
            .filter_map(|e| e.text("name").map(str::to_string))
            .collect();
        assert!(hit_spans.contains(&"cache".to_string()));
        assert!(!hit_spans.contains(&"eval".to_string()), "{hit_spans:?}");
    }

    #[test]
    fn explain_audits_the_plan_with_span_timings_near_measured_latency() {
        let service = tc_service(800, ServeConfig::default());
        let q = parse_atom("P(1, y)").unwrap();
        let audit = service
            .explain(
                &q,
                &EvalBudget::unlimited().with_max_iterations(100_000),
                None,
                TraceId::from_u64(9),
            )
            .unwrap();
        let text = serde::json::to_string(&audit);
        assert!(text.contains("\"type\":\"explain\""), "{text}");
        assert!(text.contains("\"trace\":\"0000000000000009\""), "{text}");
        assert!(text.contains("\"classification\""), "{text}");
        assert!(text.contains("\"one_directional\":true"), "{text}");
        assert!(text.contains("\"weight\""), "{text}");
        assert!(text.contains("\"choice\":\"magic\""), "{text}");
        assert!(text.contains("\"reason\""), "{text}");
        assert!(text.contains("\"outcome\":{\"complete\":true"), "{text}");
        assert!(text.contains("\"max_iterations\":100000"), "{text}");
        assert!(text.contains("\"name\":\"request\""), "{text}");
        // The span breakdown accounts for the measured request latency: the
        // root span covers everything between admission and reply.
        let Some(Value::UInt(measured)) = audit.get("measured_us") else {
            panic!("missing measured_us in {text}");
        };
        let Some(Value::Array(spans)) = audit.get("spans") else {
            panic!("missing spans in {text}");
        };
        let root_dur = spans
            .iter()
            .find(|s| s.get("parent") == Some(&Value::UInt(0)))
            .and_then(|s| match s.get("dur_us") {
                Some(Value::UInt(d)) => Some(*d),
                _ => None,
            })
            .expect("root span present");
        let drift = measured.abs_diff(root_dur);
        assert!(
            drift * 10 <= *measured,
            "root span {root_dur}us vs measured {measured}us drifts more than 10%"
        );
    }

    #[test]
    fn why_returns_a_verified_tree_or_not_derived() {
        let service = tc_service(5, ServeConfig::default());
        let p = recurs_datalog::symbol::Symbol::intern("P");
        let derived = service
            .why(p, &tuple_u64([1, 4]), 1_000, &EvalBudget::unlimited())
            .unwrap();
        let text = serde::json::to_string(&derived);
        assert!(text.contains("\"derived\":true"), "{text}");
        assert!(text.contains("\"tree\""), "{text}");
        assert!(text.contains("\"rule\":\"recursive\""), "{text}");
        assert!(text.contains("\"rule\":\"edb\""), "{text}");
        assert!(text.contains("\"view_seeded\":false"), "{text}");
        let missing = service
            .why(p, &tuple_u64([4, 1]), 1_000, &EvalBudget::unlimited())
            .unwrap();
        let text = serde::json::to_string(&missing);
        assert!(text.contains("\"derived\":false"), "{text}");
        // Wrong predicate is a typed error.
        let q = recurs_datalog::symbol::Symbol::intern("Q");
        assert!(matches!(
            service.why(q, &tuple_u64([1, 2]), 10, &EvalBudget::unlimited()),
            Err(ServeError::WrongPredicate { .. })
        ));
    }

    #[test]
    fn why_seeds_from_the_maintained_view_when_exact() {
        let service = tc_service(5, ServeConfig::default());
        let e = recurs_datalog::symbol::Symbol::intern("E");
        // A fact update builds the view, making count() available.
        service
            .apply_update(&[FactOp::Insert(e, tuple_u64([1, 5]))])
            .unwrap();
        let p = recurs_datalog::symbol::Symbol::intern("P");
        let derived = service
            .why(p, &tuple_u64([1, 4]), 1_000, &EvalBudget::unlimited())
            .unwrap();
        let text = serde::json::to_string(&derived);
        assert!(text.contains("\"view_seeded\":true"), "{text}");
        assert!(text.contains("\"derived\":true"), "{text}");
        let missing = service
            .why(p, &tuple_u64([4, 1]), 1_000, &EvalBudget::unlimited())
            .unwrap();
        let text = serde::json::to_string(&missing);
        assert!(text.contains("\"view_seeded\":true"), "{text}");
        assert!(text.contains("\"derived\":false"), "{text}");
    }

    #[test]
    fn flight_recorder_retains_recent_events_for_postmortem() {
        let service = tc_service(6, ServeConfig::default());
        let q = parse_atom("P(1, y)").unwrap();
        service.query(&q).unwrap();
        service
            .update(|db| db.insert("A", tuple_u64([6, 7])).map(|_| ()))
            .unwrap();
        let dump = service.postmortem_jsonl();
        assert!(!dump.is_empty());
        assert!(dump.contains("\"kind\":\"serve.query\""), "{dump}");
        assert!(dump.contains("\"kind\":\"serve.snapshot\""), "{dump}");
        // Every line parses as the trace-sink JSON shape.
        for line in dump.lines() {
            let v = recurs_obs::jsonl::parse(line).unwrap();
            assert!(v.get("seq").is_some() && v.get("kind").is_some(), "{line}");
        }
    }

    #[test]
    fn stats_json_is_one_line_with_expected_fields() {
        let service = tc_service(6, ServeConfig::default());
        let q = parse_atom("P(2, y)").unwrap();
        service.query(&q).unwrap();
        let json = service.stats_json();
        assert!(!json.contains('\n'));
        for field in [
            "\"queries\":1",
            "\"kernels\"",
            "\"cache\"",
            "\"snapshot_version\":0",
        ] {
            assert!(json.contains(field), "missing {field} in {json}");
        }
    }
}
