//! Library backing the `recurs` command-line tool: argument parsing, file
//! loading, and the commands (`classify`, `plan`, `run`, `figure`, `serve`,
//! `batch`).
//!
//! The CLI reads a single source file holding a recursive formula, optional
//! facts, and optional queries:
//!
//! ```text
//! % transitive closure
//! P(x, y) :- A(x, z), P(z, y).
//! P(x, y) :- E(x, y).
//!
//! A(1, 2).  A(2, 3).  A(2, 4).
//! E(1, 2).  E(2, 3).  E(2, 4).
//!
//! ?- P(1, y).
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]

use recurs_core::oracle::compare;
use recurs_core::plan::plan_query;
use recurs_core::report::{classification_report, plan_report};
use recurs_core::Classification;
use recurs_datalog::adornment::QueryForm;
use recurs_datalog::eval::{answer_query, semi_naive, semi_naive_governed_with};
use recurs_datalog::fingerprint;
use recurs_datalog::govern::{CancelToken, EvalBudget, Outcome};
use recurs_datalog::parser::{parse, parse_atom};
use recurs_datalog::rule::LinearRecursion;
use recurs_datalog::term::Term;
use recurs_datalog::validate::validate_with_generic_exit;
use recurs_datalog::{Atom, Database};
use recurs_engine::EngineConfig;
use recurs_igraph::build::resolution_graph;
use recurs_igraph::component::ComponentKind;
use recurs_igraph::dot::{to_ascii, to_dot};
use recurs_ivm::{explain_fact, render_tree, verify_tree, IvmError, WhyOutcome, DEFAULT_WHY_DEPTH};
use recurs_obs::aggregate::Aggregator;
use recurs_obs::trace::TraceWriter;
use recurs_obs::{field, Obs, Value};
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Duration;

/// Which evaluation engine `recurs run --engine` saturates the database
/// with, instead of the default class-driven query plans.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineChoice {
    /// The reference semi-naive evaluator (`recurs_datalog::eval`).
    Oracle,
    /// The indexed engine (`recurs-engine`).
    Indexed,
}

impl EngineChoice {
    /// Parses `oracle`/`indexed`.
    pub fn parse(s: &str) -> Result<EngineChoice, String> {
        match s {
            "oracle" => Ok(EngineChoice::Oracle),
            "indexed" => Ok(EngineChoice::Indexed),
            other => Err(format!(
                "unknown engine `{other}` (expected oracle or indexed)"
            )),
        }
    }

    /// The flag spelling, for output labels.
    pub fn label(self) -> &'static str {
        match self {
            EngineChoice::Oracle => "oracle",
            EngineChoice::Indexed => "indexed",
        }
    }
}

/// A parsed command line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Command {
    /// `recurs classify <file>`
    Classify {
        /// Source file path.
        file: String,
    },
    /// `recurs plan <file> [--form dvv]...`
    Plan {
        /// Source file path.
        file: String,
        /// Query-form patterns (`dvv`-style); defaults to the file's queries.
        forms: Vec<String>,
    },
    /// `recurs run <file> [--check] [--engine E] [--timeout-ms T]
    /// [--max-tuples N] [--max-iterations K] [--stats-json]`
    Run {
        /// Source file path.
        file: String,
        /// Also verify each answer set against the fixpoint oracle.
        check: bool,
        /// Saturate with this engine instead of executing query plans.
        engine: Option<EngineChoice>,
        /// Wall-clock budget in milliseconds (requires `--engine`).
        timeout_ms: Option<u64>,
        /// Derived-tuple ceiling (requires `--engine`).
        max_tuples: Option<usize>,
        /// Iteration cap (requires `--engine`).
        max_iterations: Option<usize>,
        /// Also print the saturation statistics as one JSON line
        /// (requires `--engine`).
        stats_json: bool,
        /// Write a JSON-lines evaluation trace to this file
        /// (requires `--engine`).
        trace: Option<String>,
        /// Append the run's metrics in Prometheus text format
        /// (requires `--engine`).
        metrics: bool,
        /// Explain a ground fact's derivation instead of answering the
        /// file's queries (`--why "P(1, 3)"`).
        why: Option<String>,
        /// Recursion-depth bound for `--why` reconstruction.
        why_depth: u64,
    },
    /// `recurs figure <file> [--levels k] [--dot]`
    Figure {
        /// Source file path.
        file: String,
        /// How many resolution graphs `G_1 … G_k` to print.
        levels: usize,
        /// Also emit Graphviz DOT.
        dot: bool,
    },
    /// `recurs serve <file> (--stdin | --listen ADDR) [service options]
    /// [network options]`
    Serve {
        /// Source file path (formula + initial facts).
        file: String,
        /// Service sizing and per-query budget.
        opts: ServiceOpts,
        /// TCP front-end options; `None` serves the stdin line protocol.
        net: Option<NetOpts>,
    },
    /// `recurs batch <file> [--repeat N] [--stats-json] [service options]`
    Batch {
        /// Source file path (formula + facts + `?-` queries).
        file: String,
        /// How many times to ask each query (later rounds exercise the cache).
        repeat: usize,
        /// Append the service-wide statistics as one JSON line.
        stats_json: bool,
        /// Service sizing and per-query budget.
        opts: ServiceOpts,
    },
    /// `recurs help`
    Help,
}

/// Options shared by `serve` and `batch`: how the query service is sized and
/// what per-query budget it enforces.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServiceOpts {
    /// Disable the saturation cache.
    pub no_cache: bool,
    /// Saturation-cache capacity in entries.
    pub cache_capacity: usize,
    /// Maximum concurrent evaluations.
    pub max_concurrent: usize,
    /// Per-query wall-clock budget in milliseconds.
    pub timeout_ms: Option<u64>,
    /// Per-query derived-tuple ceiling.
    pub max_tuples: Option<usize>,
    /// Per-query iteration cap.
    pub max_iterations: Option<usize>,
    /// Write the service's JSON-lines trace (spans, events) to this file.
    pub trace: Option<String>,
}

impl Default for ServiceOpts {
    fn default() -> ServiceOpts {
        ServiceOpts {
            no_cache: false,
            cache_capacity: 1024,
            max_concurrent: 4,
            timeout_ms: None,
            max_tuples: None,
            max_iterations: None,
            trace: None,
        }
    }
}

/// Options for `serve --listen`: how the TCP front end admits, times out,
/// and drains connections. Defaults mirror [`recurs_net::NetConfig`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NetOpts {
    /// Address to bind, e.g. `127.0.0.1:4004` (port 0 picks a free port).
    pub listen: String,
    /// Connection cap; further connections are shed.
    pub max_connections: usize,
    /// Idle/slow-client timeout in milliseconds.
    pub idle_timeout_ms: u64,
    /// Graceful-drain deadline in milliseconds; past it in-flight
    /// evaluations are hard-cancelled (exit code 2).
    pub drain_ms: u64,
    /// Bound on the evaluation-slot queue wait per request, milliseconds.
    pub max_queue_wait_ms: u64,
    /// Backoff hint rendered into shed replies, milliseconds.
    pub retry_after_ms: u64,
    /// Dump the flight recorder's retained events to this file when a
    /// worker panics or a drain is forced.
    pub postmortem: Option<String>,
}

impl NetOpts {
    /// Defaults for `--listen ADDR`.
    pub fn for_addr(addr: &str) -> NetOpts {
        NetOpts {
            listen: addr.to_string(),
            max_connections: 64,
            idle_timeout_ms: 30_000,
            drain_ms: 5_000,
            max_queue_wait_ms: 250,
            retry_after_ms: 50,
            postmortem: None,
        }
    }

    /// The [`recurs_net::NetConfig`] these options describe.
    pub fn config(&self) -> recurs_net::NetConfig {
        recurs_net::NetConfig {
            max_connections: self.max_connections,
            max_queue_wait: Duration::from_millis(self.max_queue_wait_ms),
            retry_after_ms: self.retry_after_ms,
            idle_timeout: Duration::from_millis(self.idle_timeout_ms),
            drain_deadline: Duration::from_millis(self.drain_ms),
            postmortem: self.postmortem.as_ref().map(std::path::PathBuf::from),
            ..recurs_net::NetConfig::default()
        }
    }
}

impl ServiceOpts {
    /// Consumes one service flag at `rest[i]`, returning the new index, or
    /// `None` if the flag is not a service option.
    fn consume(&mut self, rest: &[&String], i: usize) -> Result<Option<usize>, String> {
        let parse_num = |flag: &str| -> Result<usize, String> {
            let n = rest
                .get(i + 1)
                .ok_or_else(|| format!("{flag} needs a number"))?;
            n.parse()
                .map_err(|_| format!("invalid value `{n}` for {flag}"))
        };
        match rest[i].as_str() {
            "--no-cache" => {
                self.no_cache = true;
                Ok(Some(i + 1))
            }
            "--cache-capacity" => {
                self.cache_capacity = parse_num("--cache-capacity")?;
                Ok(Some(i + 2))
            }
            "--max-concurrent" => {
                self.max_concurrent = parse_num("--max-concurrent")?;
                if self.max_concurrent == 0 {
                    return Err("--max-concurrent must be at least 1".into());
                }
                Ok(Some(i + 2))
            }
            "--timeout-ms" => {
                self.timeout_ms = Some(parse_num("--timeout-ms")? as u64);
                Ok(Some(i + 2))
            }
            "--max-tuples" => {
                self.max_tuples = Some(parse_num("--max-tuples")?);
                Ok(Some(i + 2))
            }
            "--max-iterations" => {
                self.max_iterations = Some(parse_num("--max-iterations")?);
                Ok(Some(i + 2))
            }
            "--trace" => {
                let p = rest.get(i + 1).ok_or("--trace needs a file path")?;
                self.trace = Some((*p).clone());
                Ok(Some(i + 2))
            }
            _ => Ok(None),
        }
    }

    /// The per-query [`EvalBudget`] these options describe.
    pub fn budget(&self) -> EvalBudget {
        let mut budget = EvalBudget::iteration_cap(self.max_iterations);
        if let Some(ms) = self.timeout_ms {
            budget = budget.with_timeout(Duration::from_millis(ms));
        }
        if let Some(n) = self.max_tuples {
            budget = budget.with_max_tuples(n);
        }
        budget
    }
}

/// Usage text.
pub const USAGE: &str = "\
recurs — classification and compilation of recursive formulas (SIGMOD 1988)

USAGE:
    recurs classify <file>                 classify the formula, print the report
    recurs plan <file> [--form dvv]...     show the compiled plan per query form
    recurs run <file> [--check]            answer the file's ?- queries
                                           (--check: verify against the fixpoint)
                      [--engine oracle|indexed]
                                           saturate with the chosen engine
                                           instead of compiled query plans
                      [--timeout-ms T] [--max-tuples N] [--max-iterations K]
                                           budget the saturation (with --engine);
                                           a budgeted-out run prints the sound
                                           partial answers and exits with code 2
                      [--stats-json]       also print the saturation statistics
                                           as one JSON line (with --engine)
                      [--trace FILE]       write a JSON-lines evaluation trace
                                           (classification verdict, per-rule and
                                           per-iteration events) to FILE
                                           (with --engine)
                      [--metrics]          append the run's metrics in Prometheus
                                           text format (with --engine)
                      [--why \"P(1, 3)\"]    print a verified derivation tree for
                                           one ground fact of the recursive
                                           predicate (or that it is not
                                           derivable) instead of answering
                                           queries; the budget flags govern the
                                           provenance saturation
                      [--why-depth N]      bound the --why reconstruction depth

    recurs serve <file> --stdin            serve queries over stdin/stdout: one
                                           request per line (?- P(1, y). / +A(1, 2).
                                           / -A(1, 2). / +A(3, 4) -E(2, 3). /
                                           !explain P(1, y). / why P(1, 3). /
                                           !stats / !metrics / !snapshot /
                                           !quit; prefix @trace=<hex> to pick
                                           the request's trace id), one JSON
                                           reply per line
                                           (!metrics: Prometheus text ending
                                           with a # EOF line; a signed group is
                                           one atomic version; all-no-op groups
                                           reply unchanged without a bump);
                                           SIGTERM/Ctrl-C drains: the in-flight
                                           request is answered, then exit 0
                                           (2 if the drain deadline expires)
    recurs serve <file> --listen ADDR      serve the same protocol over TCP:
                                           length-framed requests and replies,
                                           pipelining with ordered replies,
                                           per-request deadlines (prefix a line
                                           with @deadline=MS), load shedding
                                           with a retry_after_ms hint, !health,
                                           and graceful drain on SIGTERM/Ctrl-C
                                           (exit 0 drained clean, 2 forced);
                                           prints `listening on ADDR` once
                                           bound (port 0 picks a free port)
        network options: [--max-connections N] [--idle-timeout-ms T]
                         [--drain-ms T] [--max-queue-wait-ms T]
                         [--retry-after-ms T]
                         [--postmortem FILE: dump the flight recorder's
                          retained events to FILE on a worker panic or a
                          forced drain, for `obsctl` postmortem reading]
    recurs batch <file> [--repeat N]       answer the file's ?- queries through
                                           the query service (repeat to exercise
                                           the cache) [--stats-json: append the
                                           service statistics as one JSON line]
        serve/batch options: [--no-cache] [--cache-capacity N]
                             [--max-concurrent N] [--timeout-ms T]
                             [--max-tuples N] [--max-iterations K]
                             [--trace FILE: write the service's JSON-lines
                              trace — request spans, events — to FILE, for
                              `obsctl validate|spans|slow`]

    recurs figure <file> [--levels K] [--dot]
                                           print I-graph / resolution graphs
    recurs help                            this text

EXIT CODES:
    0  complete   the run reached the fixpoint
    2  truncated  a budget or Ctrl-C stopped the run early (answers are a
                  sound under-approximation of the fixpoint)
    1  error      bad usage, unreadable file, invalid program, or engine error

FILE FORMAT:
    One linear recursive rule, optional exit rules, optional facts
    (ground atoms), optional queries (?- P(1, y).). Comments start with %.
";

/// Parses command-line arguments (without the program name).
pub fn parse_args(args: &[String]) -> Result<Command, String> {
    let mut it = args.iter();
    let cmd = it.next().map(String::as_str).unwrap_or("help");
    match cmd {
        "classify" => {
            let file = it.next().ok_or("classify needs a file argument")?;
            Ok(Command::Classify { file: file.clone() })
        }
        "plan" => {
            let file = it.next().ok_or("plan needs a file argument")?;
            let mut forms = Vec::new();
            let rest: Vec<&String> = it.collect();
            let mut i = 0;
            while i < rest.len() {
                match rest[i].as_str() {
                    "--form" => {
                        let f = rest
                            .get(i + 1)
                            .ok_or("--form needs a pattern such as dvv")?;
                        forms.push((*f).clone());
                        i += 2;
                    }
                    other => return Err(format!("unknown option `{other}`")),
                }
            }
            Ok(Command::Plan {
                file: file.clone(),
                forms,
            })
        }
        "run" => {
            let file = it.next().ok_or("run needs a file argument")?;
            let mut check = false;
            let mut engine = None;
            let mut timeout_ms = None;
            let mut max_tuples = None;
            let mut max_iterations = None;
            let mut stats_json = false;
            let mut trace = None;
            let mut metrics = false;
            let mut why = None;
            let mut why_depth = None;
            let rest: Vec<&String> = it.collect();
            let mut i = 0;
            while i < rest.len() {
                match rest[i].as_str() {
                    "--check" => {
                        check = true;
                        i += 1;
                    }
                    "--stats-json" => {
                        stats_json = true;
                        i += 1;
                    }
                    "--metrics" => {
                        metrics = true;
                        i += 1;
                    }
                    "--trace" => {
                        let p = rest.get(i + 1).ok_or("--trace needs a file path")?;
                        trace = Some((*p).clone());
                        i += 2;
                    }
                    "--why" => {
                        let f = rest
                            .get(i + 1)
                            .ok_or("--why needs a ground fact such as \"P(1, 3)\"")?;
                        why = Some((*f).clone());
                        i += 2;
                    }
                    "--why-depth" => {
                        let d = rest.get(i + 1).ok_or("--why-depth needs a number")?;
                        why_depth = Some(d.parse().map_err(|_| format!("invalid depth `{d}`"))?);
                        i += 2;
                    }
                    "--engine" => {
                        let e = rest.get(i + 1).ok_or("--engine needs oracle or indexed")?;
                        engine = Some(EngineChoice::parse(e)?);
                        i += 2;
                    }
                    "--timeout-ms" => {
                        let t = rest.get(i + 1).ok_or("--timeout-ms needs a number")?;
                        timeout_ms = Some(t.parse().map_err(|_| format!("invalid timeout `{t}`"))?);
                        i += 2;
                    }
                    "--max-tuples" => {
                        let n = rest.get(i + 1).ok_or("--max-tuples needs a number")?;
                        max_tuples =
                            Some(n.parse().map_err(|_| format!("invalid tuple cap `{n}`"))?);
                        i += 2;
                    }
                    "--max-iterations" => {
                        let k = rest.get(i + 1).ok_or("--max-iterations needs a number")?;
                        max_iterations = Some(
                            k.parse()
                                .map_err(|_| format!("invalid iteration cap `{k}`"))?,
                        );
                        i += 2;
                    }
                    other => return Err(format!("unknown option `{other}`")),
                }
            }
            if why.is_some() && (engine.is_some() || check) {
                return Err(
                    "--why explains one fact's derivation; it does not combine with \
                     --engine or --check"
                        .into(),
                );
            }
            if why_depth.is_some() && why.is_none() {
                return Err("--why-depth bounds a --why reconstruction; pass --why too".into());
            }
            if engine.is_none()
                && why.is_none()
                && (timeout_ms.is_some() || max_tuples.is_some() || max_iterations.is_some())
            {
                return Err(
                    "--timeout-ms/--max-tuples/--max-iterations budget a saturation run; \
                     pick one with --engine oracle|indexed (or pass --why)"
                        .into(),
                );
            }
            if stats_json && engine.is_none() {
                return Err("--stats-json reports saturation statistics; \
                     pick an engine with --engine oracle|indexed"
                    .into());
            }
            if (trace.is_some() || metrics) && engine.is_none() {
                return Err("--trace/--metrics observe a saturation run; \
                     pick an engine with --engine oracle|indexed"
                    .into());
            }
            Ok(Command::Run {
                file: file.clone(),
                check,
                engine,
                timeout_ms,
                max_tuples,
                max_iterations,
                stats_json,
                trace,
                metrics,
                why,
                why_depth: why_depth.unwrap_or(DEFAULT_WHY_DEPTH),
            })
        }
        "serve" => {
            let file = it.next().ok_or("serve needs a file argument")?;
            let mut stdin = false;
            let mut listen: Option<String> = None;
            let mut opts = ServiceOpts::default();
            let mut max_connections = None;
            let mut idle_timeout_ms = None;
            let mut drain_ms = None;
            let mut max_queue_wait_ms = None;
            let mut retry_after_ms = None;
            let mut postmortem = None;
            let rest: Vec<&String> = it.collect();
            let mut i = 0;
            while i < rest.len() {
                match rest[i].as_str() {
                    "--stdin" => {
                        stdin = true;
                        i += 1;
                    }
                    "--listen" => {
                        let a = rest
                            .get(i + 1)
                            .ok_or("--listen needs an address such as 127.0.0.1:4004")?;
                        listen = Some((*a).clone());
                        i += 2;
                    }
                    "--postmortem" => {
                        let p = rest.get(i + 1).ok_or("--postmortem needs a file path")?;
                        postmortem = Some((*p).clone());
                        i += 2;
                    }
                    flag @ ("--max-connections"
                    | "--idle-timeout-ms"
                    | "--drain-ms"
                    | "--max-queue-wait-ms"
                    | "--retry-after-ms") => {
                        let n = rest
                            .get(i + 1)
                            .ok_or_else(|| format!("{flag} needs a number"))?;
                        let n: u64 = n
                            .parse()
                            .map_err(|_| format!("invalid value `{n}` for {flag}"))?;
                        match flag {
                            "--max-connections" => {
                                if n == 0 {
                                    return Err("--max-connections must be at least 1".into());
                                }
                                max_connections = Some(n as usize);
                            }
                            "--idle-timeout-ms" => idle_timeout_ms = Some(n),
                            "--drain-ms" => drain_ms = Some(n),
                            "--max-queue-wait-ms" => max_queue_wait_ms = Some(n),
                            _ => retry_after_ms = Some(n),
                        }
                        i += 2;
                    }
                    _ => {
                        if let Some(next) = opts.consume(&rest, i)? {
                            i = next;
                        } else {
                            return Err(format!("unknown option `{}`", rest[i]));
                        }
                    }
                }
            }
            let has_net_flags = max_connections.is_some()
                || idle_timeout_ms.is_some()
                || drain_ms.is_some()
                || max_queue_wait_ms.is_some()
                || retry_after_ms.is_some()
                || postmortem.is_some();
            let net = match (stdin, listen) {
                (true, Some(_)) => {
                    return Err("pass exactly one of --stdin and --listen".into());
                }
                (false, None) => {
                    return Err(
                        "serve needs a transport: --stdin (line protocol over stdin/stdout) \
                         or --listen ADDR (framed TCP)"
                            .into(),
                    );
                }
                (true, None) => {
                    if has_net_flags {
                        return Err("network options (--max-connections, --idle-timeout-ms, \
                             --drain-ms, --max-queue-wait-ms, --retry-after-ms, --postmortem) \
                             require --listen"
                            .into());
                    }
                    None
                }
                (false, Some(addr)) => {
                    let mut n = NetOpts::for_addr(&addr);
                    if let Some(v) = max_connections {
                        n.max_connections = v;
                    }
                    if let Some(v) = idle_timeout_ms {
                        n.idle_timeout_ms = v;
                    }
                    if let Some(v) = drain_ms {
                        n.drain_ms = v;
                    }
                    if let Some(v) = max_queue_wait_ms {
                        n.max_queue_wait_ms = v;
                    }
                    if let Some(v) = retry_after_ms {
                        n.retry_after_ms = v;
                    }
                    n.postmortem = postmortem;
                    Some(n)
                }
            };
            Ok(Command::Serve {
                file: file.clone(),
                opts,
                net,
            })
        }
        "batch" => {
            let file = it.next().ok_or("batch needs a file argument")?;
            let mut repeat = 1usize;
            let mut stats_json = false;
            let mut opts = ServiceOpts::default();
            let rest: Vec<&String> = it.collect();
            let mut i = 0;
            while i < rest.len() {
                if rest[i] == "--repeat" {
                    let n = rest.get(i + 1).ok_or("--repeat needs a number")?;
                    repeat = n
                        .parse()
                        .map_err(|_| format!("invalid repeat count `{n}`"))?;
                    if repeat == 0 {
                        return Err("--repeat must be at least 1".into());
                    }
                    i += 2;
                } else if rest[i] == "--stats-json" {
                    stats_json = true;
                    i += 1;
                } else if let Some(next) = opts.consume(&rest, i)? {
                    i = next;
                } else {
                    return Err(format!("unknown option `{}`", rest[i]));
                }
            }
            Ok(Command::Batch {
                file: file.clone(),
                repeat,
                stats_json,
                opts,
            })
        }
        "figure" => {
            let file = it.next().ok_or("figure needs a file argument")?;
            let mut levels = 1usize;
            let mut dot = false;
            let rest: Vec<&String> = it.collect();
            let mut i = 0;
            while i < rest.len() {
                match rest[i].as_str() {
                    "--dot" => {
                        dot = true;
                        i += 1;
                    }
                    "--levels" => {
                        let k = rest.get(i + 1).ok_or("--levels needs a number")?;
                        levels = k
                            .parse()
                            .map_err(|_| format!("invalid level count `{k}`"))?;
                        if levels == 0 {
                            return Err("--levels must be at least 1".into());
                        }
                        i += 2;
                    }
                    other => return Err(format!("unknown option `{other}`")),
                }
            }
            Ok(Command::Figure {
                file: file.clone(),
                levels,
                dot,
            })
        }
        "help" | "--help" | "-h" => Ok(Command::Help),
        other => Err(format!("unknown command `{other}`\n\n{USAGE}")),
    }
}

/// A loaded source file: the validated formula, the fact database, and the
/// queries.
pub struct Loaded {
    /// The validated linear recursion.
    pub lr: LinearRecursion,
    /// Facts from the file.
    pub db: Database,
    /// Queries from the file.
    pub queries: Vec<Atom>,
}

/// Loads and validates a source text.
pub fn load(source: &str) -> Result<Loaded, String> {
    let parsed = parse(source).map_err(|e| format!("parse error: {e}"))?;
    let mut db = Database::new();
    let rules = db
        .load_facts(&parsed.program)
        .map_err(|e| format!("bad fact: {e}"))?;
    let lr = validate_with_generic_exit(&rules).map_err(|e| format!("invalid program: {e}"))?;
    // Make sure every EDB predicate at least exists (empty) so queries run.
    for pred in lr.to_program().edb_predicates() {
        if !db.contains(pred) {
            let arity = lr
                .to_program()
                .rules
                .iter()
                .flat_map(|r| r.body.iter())
                .find(|a| a.predicate == pred)
                .map(Atom::arity)
                .unwrap_or(0);
            let _ = db.declare(pred, arity);
        }
    }
    Ok(Loaded {
        lr,
        db,
        queries: parsed.queries,
    })
}

/// Builds a [`recurs_serve::QueryService`] from a source text and service
/// options, returning the file's `?-` queries alongside it.
pub fn build_service(
    source: &str,
    opts: &ServiceOpts,
) -> Result<(recurs_serve::QueryService, Vec<Atom>), String> {
    build_service_cancellable(source, opts, None)
}

/// Like [`build_service`], additionally wiring `cancel` into the per-query
/// budget so a signal truncates in-flight evaluations cooperatively.
pub fn build_service_cancellable(
    source: &str,
    opts: &ServiceOpts,
    cancel: Option<CancelToken>,
) -> Result<(recurs_serve::QueryService, Vec<Atom>), String> {
    let loaded = load(source)?;
    let mut budget = opts.budget();
    if let Some(token) = cancel {
        budget = budget.with_cancel(token);
    }
    // A `--trace FILE` sink; the writer flushes on drop when the service
    // (and its Obs handle) goes away.
    let mut sinks: Vec<Arc<dyn recurs_obs::Recorder>> = Vec::new();
    if let Some(path) = &opts.trace {
        let writer = TraceWriter::to_file(path)
            .map_err(|e| format!("cannot open trace file {path}: {e}"))?;
        sinks.push(Arc::new(writer));
    }
    let config = recurs_serve::ServeConfig {
        max_concurrent: opts.max_concurrent,
        cache_capacity: if opts.no_cache {
            0
        } else {
            opts.cache_capacity
        },
        budget,
        obs: Obs::fanout(sinks),
        ..recurs_serve::ServeConfig::default()
    };
    Ok((
        recurs_serve::QueryService::new(loaded.lr, loaded.db, config),
        loaded.queries,
    ))
}

/// Runs the `serve --stdin` line protocol over arbitrary IO: one request per
/// input line, one JSON reply per output line. Drains gracefully when
/// `cancel` fires (SIGTERM/Ctrl-C in the binary): the in-flight request's
/// budget is cancelled so it truncates quickly and still gets its one reply,
/// no further lines are started, and the process exits 0 once idle — or 2
/// if `drain_deadline` expires with the request still running. A monitor thread calls `process::exit`, because the signal
/// handler cannot interrupt a blocked stdin read (`signal(2)` installs with
/// SA_RESTART semantics). Returns normally on EOF or `!quit`.
pub fn serve_stdin_drained(
    source: &str,
    opts: &ServiceOpts,
    cancel: CancelToken,
    drain_deadline: Duration,
    input: impl std::io::BufRead,
    output: impl std::io::Write,
) -> Result<(), String> {
    serve_stdin_impl(
        source,
        opts,
        cancel,
        drain_deadline,
        input,
        output,
        |code| std::process::exit(code),
    )
}

/// [`serve_stdin_drained`] with the monitor's exit action injected, so tests
/// can observe the drain verdict instead of dying with the process.
fn serve_stdin_impl(
    source: &str,
    opts: &ServiceOpts,
    cancel: CancelToken,
    drain_deadline: Duration,
    input: impl std::io::BufRead,
    mut output: impl std::io::Write,
    exit: impl Fn(i32) + Send + 'static,
) -> Result<(), String> {
    use recurs_serve::protocol::{handle_line, LineOutcome};
    use std::sync::atomic::{AtomicBool, Ordering};

    let (service, _queries) = build_service_cancellable(source, opts, Some(cancel.clone()))?;
    let in_request = Arc::new(AtomicBool::new(false));
    {
        let cancel = cancel.clone();
        let in_request = Arc::clone(&in_request);
        std::thread::spawn(move || {
            while !cancel.is_cancelled() {
                std::thread::sleep(Duration::from_millis(20));
            }
            let deadline = std::time::Instant::now() + drain_deadline;
            loop {
                if !in_request.load(Ordering::SeqCst) {
                    exit(0);
                    return;
                }
                if std::time::Instant::now() >= deadline {
                    exit(2);
                    return;
                }
                std::thread::sleep(Duration::from_millis(5));
            }
        });
    }
    for line in input.lines() {
        let line = line.map_err(|e| format!("serve IO: {e}"))?;
        if cancel.is_cancelled() {
            // Drained at a line boundary; the monitor exits the process.
            return Ok(());
        }
        in_request.store(true, Ordering::SeqCst);
        let outcome = handle_line(&service, &line);
        let finished = (|| -> std::io::Result<bool> {
            match outcome {
                LineOutcome::Reply(reply) => {
                    writeln!(output, "{reply}")?;
                    output.flush()?;
                    Ok(false)
                }
                LineOutcome::Silent => Ok(false),
                LineOutcome::Quit => Ok(true),
            }
        })()
        .map_err(|e| format!("serve IO: {e}"))?;
        in_request.store(false, Ordering::SeqCst);
        if finished {
            break;
        }
    }
    Ok(())
}

/// Serves the framed TCP protocol on `net.listen` until `cancel` fires, then
/// drains gracefully: the listener stops accepting, in-flight requests are
/// answered within the drain deadline, and past it evaluations are
/// hard-cancelled (truncated replies, then close). Writes one
/// `listening on ADDR` line to `output` (flushed) once the socket is bound,
/// so scripts can discover an ephemeral port. The returned report's `forced`
/// flag maps to exit code 2 in the binary.
pub fn serve_listen_on_source(
    source: &str,
    opts: &ServiceOpts,
    net: &NetOpts,
    cancel: CancelToken,
    mut output: impl std::io::Write,
) -> Result<recurs_net::DrainReport, String> {
    let (service, _queries) = build_service(source, opts)?;
    let server = recurs_net::NetServer::bind(Arc::new(service), &net.listen, net.config())
        .map_err(|e| format!("cannot listen on {}: {e}", net.listen))?;
    let addr = server
        .local_addr()
        .map_err(|e| format!("local address: {e}"))?;
    writeln!(output, "listening on {addr}").map_err(|e| format!("serve IO: {e}"))?;
    output.flush().map_err(|e| format!("serve IO: {e}"))?;
    let handle = server.handle();
    std::thread::spawn(move || {
        while !cancel.is_cancelled() {
            std::thread::sleep(Duration::from_millis(20));
        }
        handle.drain();
    });
    server.run().map_err(|e| format!("serve IO: {e}"))
}

/// Prints one query's answer set under a `[label]` header.
fn write_answers(out: &mut String, query: &Atom, label: &str, answers: &recurs_datalog::Relation) {
    let _ = writeln!(out, "?- {query}   [{label}]");
    if answers.arity() == 0 {
        let _ = writeln!(out, "{}", if answers.is_empty() { "no" } else { "yes" });
    } else {
        for t in answers.iter_sorted() {
            let row: Vec<&str> = t.iter().map(|v| v.as_str()).collect();
            let _ = writeln!(out, "  {}", row.join(", "));
        }
        let _ = writeln!(out, "  ({} answers)", answers.len());
    }
}

/// The printable output of a command plus how the run ended.
///
/// `outcome` is [`Outcome::Complete`] for every command except a budgeted
/// `run --engine …` that was stopped early; the binary maps it to the exit
/// code (0 complete, 2 truncated).
#[derive(Debug, Clone)]
pub struct CmdOutput {
    /// Text to print to stdout.
    pub text: String,
    /// How the evaluation ended.
    pub outcome: Outcome,
}

/// Runs a command against a source text, returning the printable output.
/// Convenience wrapper over [`execute`] that drops the outcome.
pub fn run_on_source(cmd: &Command, source: &str) -> Result<String, String> {
    execute(cmd, source, None).map(|o| o.text)
}

/// Runs a command against a source text. A `cancel` token, when given, is
/// wired into the evaluation budget of `run --engine …` so Ctrl-C stops the
/// saturation cooperatively (reported as a truncated outcome, not an error).
pub fn execute(
    cmd: &Command,
    source: &str,
    cancel: Option<CancelToken>,
) -> Result<CmdOutput, String> {
    let mut out = String::new();
    let mut outcome = Outcome::Complete;
    match cmd {
        Command::Help => out.push_str(USAGE),
        Command::Classify { .. } => {
            let loaded = load(source)?;
            out.push_str(&classification_report(&loaded.lr));
        }
        Command::Plan { forms, .. } => {
            let loaded = load(source)?;
            let forms: Vec<QueryForm> = if forms.is_empty() {
                if loaded.queries.is_empty() {
                    // Default: single-d leading form.
                    let n = loaded.lr.dimension();
                    vec![QueryForm::parse(&format!("d{}", "v".repeat(n - 1)))]
                } else {
                    loaded.queries.iter().map(QueryForm::of_atom).collect()
                }
            } else {
                forms
                    .iter()
                    .map(|f| QueryForm::try_parse(f))
                    .collect::<Result<_, _>>()?
            };
            for form in forms {
                if form.arity() != loaded.lr.dimension() {
                    return Err(format!(
                        "form {form} has arity {}, formula has dimension {}",
                        form.arity(),
                        loaded.lr.dimension()
                    ));
                }
                out.push_str(&plan_report(&loaded.lr, &form));
                out.push('\n');
            }
        }
        Command::Run {
            check,
            engine,
            timeout_ms,
            max_tuples,
            max_iterations,
            stats_json,
            trace,
            metrics,
            why,
            why_depth,
            ..
        } => {
            let loaded = load(source)?;
            if let Some(fact_text) = why {
                let mut budget = EvalBudget::iteration_cap(*max_iterations);
                if let Some(ms) = timeout_ms {
                    budget = budget.with_timeout(Duration::from_millis(*ms));
                }
                if let Some(n) = max_tuples {
                    budget = budget.with_max_tuples(*n);
                }
                if let Some(token) = cancel {
                    budget = budget.with_cancel(token);
                }
                outcome = explain_why(&mut out, &loaded, fact_text, *why_depth, &budget)?;
                return Ok(CmdOutput { text: out, outcome });
            }
            if loaded.queries.is_empty() {
                return Err("no ?- queries in the file".into());
            }
            if *check {
                // Say exactly which program/database version this check run
                // certifies, so reports stay comparable across edits.
                let _ = writeln!(
                    out,
                    "check: program={} db={}",
                    fingerprint::of_program(&loaded.lr.to_program()),
                    fingerprint::of_database(&loaded.db)
                );
            }
            match engine {
                None => {
                    for query in &loaded.queries {
                        let plan = plan_query(&loaded.lr, query);
                        let answers = plan
                            .execute(&loaded.db, query)
                            .map_err(|e| format!("execution failed: {e}"))?;
                        write_answers(&mut out, query, &format!("{:?}", plan.strategy), &answers);
                        if *check {
                            let report = compare(&loaded.lr, &loaded.db, query)
                                .map_err(|e| format!("oracle failed: {e}"))?;
                            let _ = writeln!(
                                out,
                                "  oracle: {}",
                                if report.agrees() {
                                    "agrees"
                                } else {
                                    "DISAGREES"
                                }
                            );
                            if !report.agrees() {
                                return Err(format!("plan disagrees with the fixpoint on {query}"));
                            }
                        }
                    }
                }
                Some(choice) => {
                    // Saturate once with the chosen engine under the
                    // requested budget, then answer every query against the
                    // (possibly partial) saturated database.
                    let mut budget = EvalBudget::iteration_cap(*max_iterations);
                    if let Some(ms) = timeout_ms {
                        budget = budget.with_timeout(Duration::from_millis(*ms));
                    }
                    if let Some(n) = max_tuples {
                        budget = budget.with_max_tuples(*n);
                    }
                    if let Some(token) = cancel {
                        budget = budget.with_cancel(token);
                    }
                    let (obs, trace_writer, metrics_agg) =
                        build_run_obs(trace.as_deref(), *metrics)?;
                    if obs.enabled() {
                        emit_classify_verdict(&obs, &loaded.lr, *choice);
                    }
                    let mut db = loaded.db.clone();
                    let (label, stats_line) = match choice {
                        EngineChoice::Oracle => {
                            let stats = semi_naive_governed_with(
                                &mut db,
                                &loaded.lr.to_program(),
                                &budget,
                                &obs,
                            )
                            .map_err(|e| format!("oracle engine failed: {e}"))?;
                            if let Some(reason) = stats.truncation {
                                outcome = Outcome::Truncated(reason);
                            }
                            (
                                format!("engine:oracle iterations={}", stats.iterations),
                                stats_json.then(|| serde::json::to_string(&stats)),
                            )
                        }
                        EngineChoice::Indexed => {
                            let config = EngineConfig {
                                budget,
                                obs: obs.clone(),
                            };
                            let sat = recurs_engine::run_linear(&mut db, &loaded.lr, &config)
                                .map_err(|e| format!("engine failed: {e}"))?;
                            outcome = sat.outcome;
                            (
                                format!(
                                    "engine:{} kernel:{} iterations={}",
                                    choice.label(),
                                    sat.stats.kernel.map_or_else(|| "?".into(), |k| k.label()),
                                    sat.stats.iteration_count()
                                ),
                                stats_json.then(|| serde::json::to_string(&sat)),
                            )
                        }
                    };
                    // The oracle fixpoint for --check (computed once).
                    let oracle_db = if *check {
                        let mut odb = loaded.db.clone();
                        semi_naive(&mut odb, &loaded.lr.to_program(), None)
                            .map_err(|e| format!("oracle failed: {e}"))?;
                        Some(odb)
                    } else {
                        None
                    };
                    for query in &loaded.queries {
                        let answers =
                            answer_query(&db, query).map_err(|e| format!("query failed: {e}"))?;
                        write_answers(&mut out, query, &label, &answers);
                        if let Some(odb) = &oracle_db {
                            let expected = answer_query(odb, query)
                                .map_err(|e| format!("oracle query failed: {e}"))?;
                            if outcome.is_complete() {
                                let agrees = answers == expected;
                                let _ = writeln!(
                                    out,
                                    "  oracle: {}",
                                    if agrees { "agrees" } else { "DISAGREES" }
                                );
                                if !agrees {
                                    return Err(format!(
                                        "engine disagrees with the fixpoint on {query}"
                                    ));
                                }
                            } else {
                                // A truncated run only promises a sound
                                // under-approximation: every answer must lie
                                // inside the fixpoint's answer set.
                                let sound = answers.iter().all(|t| expected.contains(t));
                                let _ = writeln!(
                                    out,
                                    "  oracle: {}",
                                    if sound {
                                        "subset of the fixpoint (truncated run)"
                                    } else {
                                        "DISAGREES"
                                    }
                                );
                                if !sound {
                                    return Err(format!(
                                        "truncated run over-approximates the fixpoint on {query}"
                                    ));
                                }
                            }
                        }
                    }
                    if let Some(reason) = outcome.truncation() {
                        let _ = writeln!(
                            out,
                            "truncated: {reason} (answers are a sound under-approximation)"
                        );
                    }
                    if let Some(json) = stats_line {
                        let _ = writeln!(out, "{json}");
                    }
                    if let Some(agg) = metrics_agg {
                        out.push_str(&agg.prometheus_text());
                    }
                    if let Some(writer) = trace_writer {
                        writer.flush();
                        if writer.had_error() {
                            return Err("trace write failed (trace file is incomplete)".into());
                        }
                    }
                }
            }
        }
        Command::Serve { .. } => {
            return Err(
                "serve streams requests from a transport; run it from the recurs binary \
                 with --stdin or --listen"
                    .into(),
            );
        }
        Command::Batch {
            repeat,
            stats_json,
            opts,
            ..
        } => {
            let (service, queries) = build_service(source, opts)?;
            if queries.is_empty() {
                return Err("no ?- queries in the file".into());
            }
            for _round in 0..*repeat {
                for query in &queries {
                    let reply = service
                        .query(query)
                        .map_err(|e| format!("query failed: {e}"))?;
                    let label = format!(
                        "serve kernel:{} cache:{} v{}",
                        reply.stats.kernel.label(),
                        reply.stats.cache.label(),
                        reply.stats.snapshot_version
                    );
                    write_answers(&mut out, query, &label, &reply.answers);
                    if let Some(reason) = reply.outcome.truncation() {
                        outcome = Outcome::Truncated(reason);
                        let _ = writeln!(out, "  truncated: {reason} (sound subset)");
                    }
                }
            }
            if *stats_json {
                out.push_str(&service.stats_json());
                out.push('\n');
            }
        }
        Command::Figure { levels, dot, .. } => {
            let loaded = load(source)?;
            for k in 1..=*levels {
                let rg = resolution_graph(&loaded.lr.recursive_rule, k);
                let _ = writeln!(out, "--- G{k} ---");
                out.push_str(&to_ascii(&rg.graph));
                if *dot {
                    out.push_str(&to_dot(&rg.graph, &format!("G{k}")));
                }
            }
        }
    }
    Ok(CmdOutput { text: out, outcome })
}

/// Builds the observability sinks a `run --engine` invocation asked for:
/// a JSON-lines [`TraceWriter`] for `--trace FILE` and a metric
/// [`Aggregator`] for `--metrics`. Both feed from the same handle, so the
/// trace and the Prometheus text describe the same run.
#[allow(clippy::type_complexity)]
fn build_run_obs(
    trace: Option<&str>,
    metrics: bool,
) -> Result<(Obs, Option<Arc<TraceWriter>>, Option<Arc<Aggregator>>), String> {
    let mut sinks: Vec<Arc<dyn recurs_obs::Recorder>> = Vec::new();
    let mut trace_writer = None;
    let mut metrics_agg = None;
    if let Some(path) = trace {
        let writer = Arc::new(
            TraceWriter::to_file(path)
                .map_err(|e| format!("cannot open trace file {path}: {e}"))?,
        );
        trace_writer = Some(writer.clone());
        sinks.push(writer as Arc<dyn recurs_obs::Recorder>);
    }
    if metrics {
        let agg = Arc::new(Aggregator::default());
        metrics_agg = Some(agg.clone());
        sinks.push(agg as Arc<dyn recurs_obs::Recorder>);
    }
    Ok((Obs::fanout(sinks), trace_writer, metrics_agg))
}

/// Runs `run --why`: reconstructs (and structurally verifies) a derivation
/// tree for one ground fact of the recursive predicate, or reports that the
/// fact is not derivable. A budget truncation maps to the truncated exit
/// code like any other governed run; a depth bound that is exceeded still
/// reports the fact's rank so the caller knows what `--why-depth` to pass.
fn explain_why(
    out: &mut String,
    loaded: &Loaded,
    fact_text: &str,
    depth_bound: u64,
    budget: &EvalBudget,
) -> Result<Outcome, String> {
    let (pred, tuple) = parse_ground_fact(fact_text)?;
    if pred != loaded.lr.predicate {
        return Err(format!(
            "--why explains {} facts; `{pred}` is not the recursive predicate",
            loaded.lr.predicate
        ));
    }
    let args: Vec<&str> = tuple.iter().map(|v| v.as_str()).collect();
    let fact = format!("{pred}({})", args.join(", "));
    match explain_fact(&loaded.lr, &loaded.db, &tuple, depth_bound, budget) {
        Ok(WhyOutcome::Derived(tree)) => {
            verify_tree(&loaded.lr, &loaded.db, &tree)
                .map_err(|d| format!("derivation tree failed structural verification: {d}"))?;
            let _ = writeln!(
                out,
                "{fact} is derived (depth {}, {} nodes):",
                tree.depth(),
                tree.size()
            );
            out.push_str(&render_tree(&tree));
            Ok(Outcome::Complete)
        }
        Ok(WhyOutcome::NotDerived) => {
            let _ = writeln!(out, "{fact} is not derivable from the file's facts");
            Ok(Outcome::Complete)
        }
        Ok(WhyOutcome::DepthExceeded { rank, max_depth }) => {
            let _ = writeln!(
                out,
                "{fact} is derived at rank {rank}, beyond --why-depth {max_depth}; \
                 raise the bound to see the tree"
            );
            Ok(Outcome::Complete)
        }
        Err(IvmError::Truncated(reason)) => {
            let _ = writeln!(
                out,
                "truncated: {reason} (the provenance saturation ran out of budget \
                 before reaching {fact})"
            );
            Ok(Outcome::Truncated(reason))
        }
        Err(e) => Err(format!("why failed: {e}")),
    }
}

/// Parses `P(1, 3)` (an optional trailing `.` is tolerated) into a
/// predicate and a ground tuple.
fn parse_ground_fact(
    text: &str,
) -> Result<
    (
        recurs_datalog::symbol::Symbol,
        recurs_datalog::relation::Tuple,
    ),
    String,
> {
    let text = text.trim();
    let text = text.strip_suffix('.').unwrap_or(text).trim();
    let atom = parse_atom(text).map_err(|e| format!("bad fact `{text}`: {e}"))?;
    let mut values = Vec::with_capacity(atom.terms.len());
    for t in &atom.terms {
        match t {
            Term::Const(c) => values.push(*c),
            Term::Var(v) => return Err(format!("fact {text} is not ground: variable {v}")),
        }
    }
    Ok((
        atom.predicate,
        recurs_datalog::relation::Tuple::from(values.as_slice()),
    ))
}

/// Emits the classification *explain* event: the formula's class verdict,
/// each non-trivial I-graph component with its cycle weight and direction,
/// the proven rank bound (when one exists), and the engine kernel the
/// verdict selects. This is the provenance record tying a trace back to
/// the paper's dispatch decision.
fn emit_classify_verdict(obs: &Obs, lr: &LinearRecursion, choice: EngineChoice) {
    let c = Classification::of(&lr.recursive_rule);
    let mut class_iter = c.component_classes.iter();
    let components: Vec<Value> = c
        .components
        .iter()
        .filter(|comp| comp.is_nontrivial())
        .map(|comp| {
            let label = class_iter.next().map_or("?", |cl| cl.label());
            let mut fields = vec![
                ("class", field::s(label)),
                ("cycles", field::uz(comp.cycles.len())),
            ];
            if let ComponentKind::IndependentCycle(cy) = &comp.kind {
                fields.push(("weight", field::u(cy.magnitude())));
                fields.push(("one_directional", field::b(cy.one_directional)));
                fields.push(("rotational", field::b(cy.rotational)));
            }
            Value::object(fields)
        })
        .collect();
    let kernel = match choice {
        EngineChoice::Oracle => "semi-naive".to_string(),
        _ => recurs_engine::select_kernel(&c).label(),
    };
    let mut fields = vec![
        ("class", field::s(c.class.label())),
        ("components", Value::Array(components)),
        ("kernel", field::s(kernel)),
        ("engine", field::s(choice.label())),
    ];
    if let Some(rank) = c.rank_bound() {
        fields.push(("rank_bound", field::u(rank)));
    }
    obs.event("classify.verdict", &fields);
}

#[cfg(test)]
mod tests {
    use super::*;

    const TC: &str = "\
P(x, y) :- A(x, z), P(z, y).
P(x, y) :- E(x, y).
A(1, 2). A(2, 3). A(2, 4).
E(1, 2). E(2, 3). E(2, 4).
?- P(1, y).
?- P(1, 4).
?- P(4, 1).
";

    fn args(s: &[&str]) -> Vec<String> {
        s.iter().map(|x| x.to_string()).collect()
    }

    #[test]
    fn parse_args_variants() {
        assert_eq!(
            parse_args(&args(&["classify", "f.dl"])).unwrap(),
            Command::Classify {
                file: "f.dl".into()
            }
        );
        assert_eq!(
            parse_args(&args(&["plan", "f.dl", "--form", "dv"])).unwrap(),
            Command::Plan {
                file: "f.dl".into(),
                forms: vec!["dv".into()]
            }
        );
        assert_eq!(
            parse_args(&args(&["run", "f.dl", "--check"])).unwrap(),
            Command::Run {
                file: "f.dl".into(),
                check: true,
                engine: None,
                timeout_ms: None,
                max_tuples: None,
                max_iterations: None,
                stats_json: false,
                trace: None,
                metrics: false,
                why: None,
                why_depth: DEFAULT_WHY_DEPTH,
            }
        );
        assert_eq!(
            parse_args(&args(&["run", "f.dl", "--engine", "indexed"])).unwrap(),
            Command::Run {
                file: "f.dl".into(),
                check: false,
                engine: Some(EngineChoice::Indexed),
                timeout_ms: None,
                max_tuples: None,
                max_iterations: None,
                stats_json: false,
                trace: None,
                metrics: false,
                why: None,
                why_depth: DEFAULT_WHY_DEPTH,
            }
        );
        assert!(parse_args(&args(&["run", "f.dl", "--engine", "warp"])).is_err());
        // `--engine parallel` and `--threads` are usage errors everywhere.
        let err = parse_args(&args(&["run", "f.dl", "--engine", "parallel"])).unwrap_err();
        assert!(err.contains("unknown engine `parallel`"), "{err}");
        for cmd in [
            &["run", "f.dl", "--threads", "2"][..],
            &["serve", "f.dl", "--stdin", "--threads", "2"],
            &["batch", "f.dl", "--threads", "2"],
        ] {
            let err = parse_args(&args(cmd)).unwrap_err();
            assert!(err.contains("unknown option `--threads`"), "{cmd:?}: {err}");
        }
        assert_eq!(
            parse_args(&args(&["figure", "f.dl", "--levels", "3", "--dot"])).unwrap(),
            Command::Figure {
                file: "f.dl".into(),
                levels: 3,
                dot: true
            }
        );
        assert_eq!(parse_args(&args(&["help"])).unwrap(), Command::Help);
        assert_eq!(parse_args(&[]).unwrap(), Command::Help);
        assert!(parse_args(&args(&["bogus"])).is_err());
        assert!(parse_args(&args(&["plan", "f.dl", "--form"])).is_err());
        assert!(parse_args(&args(&["figure", "f.dl", "--levels", "0"])).is_err());
    }

    #[test]
    fn parse_args_budget_flags() {
        assert_eq!(
            parse_args(&args(&[
                "run",
                "f.dl",
                "--engine",
                "indexed",
                "--timeout-ms",
                "250",
                "--max-tuples",
                "100",
                "--max-iterations",
                "7"
            ]))
            .unwrap(),
            Command::Run {
                file: "f.dl".into(),
                check: false,
                engine: Some(EngineChoice::Indexed),
                timeout_ms: Some(250),
                max_tuples: Some(100),
                max_iterations: Some(7),
                stats_json: false,
                trace: None,
                metrics: false,
                why: None,
                why_depth: DEFAULT_WHY_DEPTH,
            }
        );
        // Budget flags without an engine are a usage error.
        let err = parse_args(&args(&["run", "f.dl", "--max-tuples", "5"])).unwrap_err();
        assert!(err.contains("--engine"), "{err}");
        assert!(parse_args(&args(&["run", "f.dl", "--timeout-ms", "abc"])).is_err());
        assert!(parse_args(&args(&["run", "f.dl", "--max-tuples"])).is_err());
    }

    #[test]
    fn parse_args_why_flags() {
        assert_eq!(
            parse_args(&args(&["run", "f.dl", "--why", "P(1, 3)"])).unwrap(),
            Command::Run {
                file: "f.dl".into(),
                check: false,
                engine: None,
                timeout_ms: None,
                max_tuples: None,
                max_iterations: None,
                stats_json: false,
                trace: None,
                metrics: false,
                why: Some("P(1, 3)".into()),
                why_depth: DEFAULT_WHY_DEPTH,
            }
        );
        // A depth bound and budget flags compose with --why (they govern the
        // provenance saturation), without requiring an engine.
        let cmd = parse_args(&args(&[
            "run",
            "f.dl",
            "--why",
            "P(1, 3)",
            "--why-depth",
            "7",
            "--max-tuples",
            "100",
        ]))
        .unwrap();
        match cmd {
            Command::Run {
                why,
                why_depth,
                max_tuples,
                ..
            } => {
                assert_eq!(why.as_deref(), Some("P(1, 3)"));
                assert_eq!(why_depth, 7);
                assert_eq!(max_tuples, Some(100));
            }
            other => panic!("expected run, got {other:?}"),
        }
        // --why excludes --engine/--check; --why-depth needs --why.
        let err = parse_args(&args(&[
            "run", "f.dl", "--why", "P(1)", "--engine", "indexed",
        ]))
        .unwrap_err();
        assert!(err.contains("--why"), "{err}");
        let err = parse_args(&args(&["run", "f.dl", "--why", "P(1)", "--check"])).unwrap_err();
        assert!(err.contains("--why"), "{err}");
        let err = parse_args(&args(&["run", "f.dl", "--why-depth", "3"])).unwrap_err();
        assert!(err.contains("--why"), "{err}");
        assert!(parse_args(&args(&["run", "f.dl", "--why"])).is_err());
        assert!(parse_args(&args(&["run", "f.dl", "--why", "P(1)", "--why-depth", "x"])).is_err());
    }

    fn why_run(fact: &str, why_depth: u64, max_tuples: Option<usize>) -> Command {
        Command::Run {
            file: String::new(),
            check: false,
            engine: None,
            timeout_ms: None,
            max_tuples,
            max_iterations: None,
            stats_json: false,
            trace: None,
            metrics: false,
            why: Some(fact.into()),
            why_depth,
        }
    }

    #[test]
    fn run_why_renders_a_verified_derivation_tree() {
        let out = execute(&why_run("P(1, 4)", DEFAULT_WHY_DEPTH, None), TC, None).unwrap();
        assert!(out.outcome.is_complete());
        assert!(out.text.contains("P(1, 4) is derived"), "{}", out.text);
        // The tree grounds out in EDB leaves and tags the rules used.
        assert!(out.text.contains("[recursive rule]"), "{}", out.text);
        assert!(out.text.contains("[edb]"), "{}", out.text);
        assert!(out.text.contains("E(2, 4)"), "{}", out.text);

        let out = execute(&why_run("P(4, 1)", DEFAULT_WHY_DEPTH, None), TC, None).unwrap();
        assert!(out.outcome.is_complete());
        assert!(
            out.text.contains("P(4, 1) is not derivable"),
            "{}",
            out.text
        );
    }

    #[test]
    fn run_why_reports_rank_when_the_depth_bound_is_exceeded() {
        // P(1, 4) needs one recursive step; a zero depth bound names the
        // rank instead of rendering a tree.
        let out = execute(&why_run("P(1, 4)", 0, None), TC, None).unwrap();
        assert!(out.outcome.is_complete());
        assert!(out.text.contains("beyond --why-depth 0"), "{}", out.text);
        assert!(out.text.contains("rank 1"), "{}", out.text);
    }

    #[test]
    fn run_why_maps_a_budget_truncation_to_the_truncated_outcome() {
        let out = execute(&why_run("P(1, 4)", DEFAULT_WHY_DEPTH, Some(1)), TC, None).unwrap();
        assert!(!out.outcome.is_complete(), "{}", out.text);
        assert!(out.text.contains("truncated"), "{}", out.text);
    }

    #[test]
    fn run_why_rejects_non_ground_and_foreign_facts() {
        let err = execute(&why_run("P(x, y)", DEFAULT_WHY_DEPTH, None), TC, None).unwrap_err();
        assert!(err.contains("not ground"), "{err}");
        let err = execute(&why_run("Q(1, 2)", DEFAULT_WHY_DEPTH, None), TC, None).unwrap_err();
        assert!(err.contains("recursive predicate"), "{err}");
        let err = execute(&why_run("P(1", DEFAULT_WHY_DEPTH, None), TC, None).unwrap_err();
        assert!(err.contains("bad fact"), "{err}");
    }

    fn budgeted_run(
        engine: EngineChoice,
        max_tuples: Option<usize>,
        max_iterations: Option<usize>,
    ) -> Command {
        Command::Run {
            file: String::new(),
            check: true,
            engine: Some(engine),
            timeout_ms: None,
            max_tuples,
            max_iterations,
            stats_json: false,
            trace: None,
            metrics: false,
            why: None,
            why_depth: DEFAULT_WHY_DEPTH,
        }
    }

    #[test]
    fn budgeted_run_reports_truncation_and_a_sound_subset() {
        for engine in [EngineChoice::Oracle, EngineChoice::Indexed] {
            let out = execute(&budgeted_run(engine, Some(1), None), TC, None).unwrap();
            assert!(
                !out.outcome.is_complete(),
                "{}: tuple ceiling 1 must truncate",
                engine.label()
            );
            assert!(
                out.text.contains("truncated: tuple ceiling"),
                "{}",
                out.text
            );
            assert!(!out.text.contains("DISAGREES"), "{}", out.text);
        }
    }

    #[test]
    fn unbudgeted_run_outcome_is_complete() {
        let out = execute(&budgeted_run(EngineChoice::Indexed, None, None), TC, None).unwrap();
        assert!(out.outcome.is_complete());
        assert!(out.text.contains("oracle: agrees"), "{}", out.text);
        assert!(!out.text.contains("truncated"), "{}", out.text);
    }

    #[test]
    fn pre_cancelled_token_truncates_immediately() {
        let token = CancelToken::new();
        token.cancel();
        let out = execute(
            &budgeted_run(EngineChoice::Indexed, None, None),
            TC,
            Some(token),
        )
        .unwrap();
        assert!(!out.outcome.is_complete());
        assert!(out.text.contains("truncated: cancelled"), "{}", out.text);
    }

    #[test]
    fn plan_rejects_malformed_query_form() {
        let err = run_on_source(
            &Command::Plan {
                file: String::new(),
                forms: vec!["dxz".into()],
            },
            TC,
        )
        .unwrap_err();
        assert!(err.contains("invalid query-form character"), "{err}");
    }

    #[test]
    fn classify_command_output() {
        let out = run_on_source(
            &Command::Classify {
                file: String::new(),
            },
            TC,
        )
        .unwrap();
        assert!(out.contains("class    : A5"));
        assert!(out.contains("strongly stable       : true"));
    }

    #[test]
    fn run_command_answers_queries() {
        let out = run_on_source(
            &Command::Run {
                file: String::new(),
                check: true,
                engine: None,
                timeout_ms: None,
                max_tuples: None,
                max_iterations: None,
                stats_json: false,
                trace: None,
                metrics: false,
                why: None,
                why_depth: DEFAULT_WHY_DEPTH,
            },
            TC,
        )
        .unwrap();
        // P(1, y): 2, 3, 4.
        assert!(out.contains("(3 answers)"), "{out}");
        // P(1, 4): yes; P(4, 1): no.
        assert!(out.contains("yes"), "{out}");
        assert!(out.contains("no"), "{out}");
        assert!(out.contains("oracle: agrees"), "{out}");
    }

    #[test]
    fn run_command_engine_modes_agree_with_plans() {
        let plan_out = run_on_source(
            &Command::Run {
                file: String::new(),
                check: false,
                engine: None,
                timeout_ms: None,
                max_tuples: None,
                max_iterations: None,
                stats_json: false,
                trace: None,
                metrics: false,
                why: None,
                why_depth: DEFAULT_WHY_DEPTH,
            },
            TC,
        )
        .unwrap();
        for choice in [EngineChoice::Oracle, EngineChoice::Indexed] {
            let out = run_on_source(
                &Command::Run {
                    file: String::new(),
                    check: true,
                    engine: Some(choice),
                    timeout_ms: None,
                    max_tuples: None,
                    max_iterations: None,
                    stats_json: false,
                    trace: None,
                    metrics: false,
                    why: None,
                    why_depth: DEFAULT_WHY_DEPTH,
                },
                TC,
            )
            .unwrap();
            assert!(out.contains(&format!("engine:{}", choice.label())), "{out}");
            assert!(out.contains("oracle: agrees"), "{out}");
            // Same answer lines as the plan-driven run (headers differ).
            for line in plan_out.lines().filter(|l| l.starts_with("  ")) {
                assert!(out.contains(line), "missing `{line}` in {out}");
            }
        }
        // The indexed engine reports the class-selected kernel for TC (A5).
        let out = run_on_source(
            &Command::Run {
                file: String::new(),
                check: false,
                engine: Some(EngineChoice::Indexed),
                timeout_ms: None,
                max_tuples: None,
                max_iterations: None,
                stats_json: false,
                trace: None,
                metrics: false,
                why: None,
                why_depth: DEFAULT_WHY_DEPTH,
            },
            TC,
        )
        .unwrap();
        assert!(out.contains("kernel:frontier"), "{out}");
    }

    #[test]
    fn plan_command_uses_query_forms() {
        let out = run_on_source(
            &Command::Plan {
                file: String::new(),
                forms: vec!["dv".into(), "vv".into()],
            },
            TC,
        )
        .unwrap();
        assert!(out.contains("P(dv)"));
        assert!(out.contains("P(vv)"));
        assert!(out.contains("compiled formula"));
    }

    #[test]
    fn plan_command_rejects_bad_arity() {
        let err = run_on_source(
            &Command::Plan {
                file: String::new(),
                forms: vec!["dvv".into()],
            },
            TC,
        )
        .unwrap_err();
        assert!(err.contains("arity"));
    }

    #[test]
    fn figure_command_renders_levels() {
        let out = run_on_source(
            &Command::Figure {
                file: String::new(),
                levels: 2,
                dot: true,
            },
            TC,
        )
        .unwrap();
        assert!(out.contains("--- G1 ---"));
        assert!(out.contains("--- G2 ---"));
        assert!(out.contains("graph \"G2\""));
    }

    #[test]
    fn load_rejects_invalid_programs() {
        assert!(load("P(x, y) :- P(x, z), P(z, y).").is_err()); // non-linear
        assert!(load("A(1, 2).").is_err()); // no recursion
        assert!(load("P(x y) :-").is_err()); // syntax
    }

    #[test]
    fn run_without_queries_is_an_error() {
        let err = run_on_source(
            &Command::Run {
                file: String::new(),
                check: false,
                engine: None,
                timeout_ms: None,
                max_tuples: None,
                max_iterations: None,
                stats_json: false,
                trace: None,
                metrics: false,
                why: None,
                why_depth: DEFAULT_WHY_DEPTH,
            },
            "P(x, y) :- A(x, z), P(z, y).\nP(x, y) :- E(x, y).",
        )
        .unwrap_err();
        assert!(err.contains("no ?- queries"));
    }

    #[test]
    fn missing_edb_relations_default_to_empty() {
        // Facts only for A; E is declared empty, so queries return nothing
        // rather than erroring.
        let src = "P(x, y) :- A(x, z), P(z, y).\nP(x, y) :- E(x, y).\nA(1, 2).\n?- P(1, y).";
        let out = run_on_source(
            &Command::Run {
                file: String::new(),
                check: true,
                engine: None,
                timeout_ms: None,
                max_tuples: None,
                max_iterations: None,
                stats_json: false,
                trace: None,
                metrics: false,
                why: None,
                why_depth: DEFAULT_WHY_DEPTH,
            },
            src,
        )
        .unwrap();
        assert!(out.contains("(0 answers)"), "{out}");
    }

    #[test]
    fn parse_args_serve_and_batch() {
        assert_eq!(
            parse_args(&args(&["serve", "f.dl", "--stdin"])).unwrap(),
            Command::Serve {
                file: "f.dl".into(),
                opts: ServiceOpts::default(),
                net: None,
            }
        );
        assert_eq!(
            parse_args(&args(&[
                "serve",
                "f.dl",
                "--stdin",
                "--no-cache",
                "--max-tuples",
                "9"
            ]))
            .unwrap(),
            Command::Serve {
                file: "f.dl".into(),
                opts: ServiceOpts {
                    no_cache: true,
                    max_tuples: Some(9),
                    ..ServiceOpts::default()
                },
                net: None,
            }
        );
        // serve needs exactly one transport.
        let err = parse_args(&args(&["serve", "f.dl"])).unwrap_err();
        assert!(err.contains("--stdin"), "{err}");
        assert!(err.contains("--listen"), "{err}");
        let err = parse_args(&args(&[
            "serve",
            "f.dl",
            "--stdin",
            "--listen",
            "127.0.0.1:0",
        ]))
        .unwrap_err();
        assert!(err.contains("exactly one"), "{err}");
        assert!(parse_args(&args(&[
            "serve",
            "f.dl",
            "--stdin",
            "--max-concurrent",
            "0"
        ]))
        .is_err());

        assert_eq!(
            parse_args(&args(&[
                "batch",
                "f.dl",
                "--repeat",
                "3",
                "--stats-json",
                "--cache-capacity",
                "64"
            ]))
            .unwrap(),
            Command::Batch {
                file: "f.dl".into(),
                repeat: 3,
                stats_json: true,
                opts: ServiceOpts {
                    cache_capacity: 64,
                    ..ServiceOpts::default()
                },
            }
        );
        assert!(parse_args(&args(&["batch", "f.dl", "--repeat", "0"])).is_err());
        assert!(parse_args(&args(&["batch", "f.dl", "--bogus"])).is_err());
    }

    #[test]
    fn run_stats_json_requires_an_engine() {
        let err = parse_args(&args(&["run", "f.dl", "--stats-json"])).unwrap_err();
        assert!(err.contains("--engine"), "{err}");
        assert_eq!(
            parse_args(&args(&[
                "run",
                "f.dl",
                "--engine",
                "indexed",
                "--stats-json"
            ]))
            .unwrap(),
            Command::Run {
                file: "f.dl".into(),
                check: false,
                engine: Some(EngineChoice::Indexed),
                timeout_ms: None,
                max_tuples: None,
                max_iterations: None,
                stats_json: true,
                trace: None,
                metrics: false,
                why: None,
                why_depth: DEFAULT_WHY_DEPTH,
            }
        );
    }

    #[test]
    fn run_stats_json_emits_saturation_statistics() {
        for choice in [EngineChoice::Oracle, EngineChoice::Indexed] {
            let out = run_on_source(
                &Command::Run {
                    file: String::new(),
                    check: false,
                    engine: Some(choice),
                    timeout_ms: None,
                    max_tuples: None,
                    max_iterations: None,
                    stats_json: true,
                    trace: None,
                    metrics: false,
                    why: None,
                    why_depth: DEFAULT_WHY_DEPTH,
                },
                TC,
            )
            .unwrap();
            let json = out
                .lines()
                .find(|l| l.starts_with('{'))
                .unwrap_or_else(|| panic!("no JSON line from {}: {out}", choice.label()));
            assert!(json.contains("\"iterations\""), "{json}");
            assert!(json.contains("\"tuples_derived\""), "{json}");
        }
    }

    #[test]
    fn run_check_reports_fingerprints() {
        let out = run_on_source(
            &Command::Run {
                file: String::new(),
                check: true,
                engine: None,
                timeout_ms: None,
                max_tuples: None,
                max_iterations: None,
                stats_json: false,
                trace: None,
                metrics: false,
                why: None,
                why_depth: DEFAULT_WHY_DEPTH,
            },
            TC,
        )
        .unwrap();
        let line = out
            .lines()
            .find(|l| l.starts_with("check: "))
            .unwrap_or_else(|| panic!("no check line: {out}"));
        assert!(line.contains("program="), "{line}");
        assert!(line.contains("db="), "{line}");
        // 16 hex digits each, and stable across runs.
        let again = run_on_source(
            &Command::Run {
                file: String::new(),
                check: true,
                engine: None,
                timeout_ms: None,
                max_tuples: None,
                max_iterations: None,
                stats_json: false,
                trace: None,
                metrics: false,
                why: None,
                why_depth: DEFAULT_WHY_DEPTH,
            },
            TC,
        )
        .unwrap();
        assert!(again.contains(line), "fingerprints must be deterministic");
    }

    #[test]
    fn batch_answers_match_run_and_second_round_hits_the_cache() {
        let cmd = Command::Batch {
            file: String::new(),
            repeat: 2,
            stats_json: true,
            opts: ServiceOpts::default(),
        };
        let out = run_on_source(&cmd, TC).unwrap();
        // Same answer rows as the plan-driven run.
        assert!(out.contains("(3 answers)"), "{out}");
        assert!(out.contains("yes"), "{out}");
        assert!(out.contains("no"), "{out}");
        // Bound TC queries dispatch to the magic kernel; the first round
        // misses, the repeat round hits.
        assert!(out.contains("kernel:magic"), "{out}");
        assert!(out.contains("cache:miss"), "{out}");
        assert!(out.contains("cache:hit"), "{out}");
        // The closing stats line is one JSON object.
        let json = out.lines().last().unwrap_or_default();
        assert!(json.starts_with('{'), "{out}");
        assert!(json.contains("\"queries\":6"), "{json}");
        assert!(json.contains("\"hits\":3"), "{json}");
    }

    #[test]
    fn batch_without_cache_never_hits() {
        let cmd = Command::Batch {
            file: String::new(),
            repeat: 2,
            stats_json: false,
            opts: ServiceOpts {
                no_cache: true,
                ..ServiceOpts::default()
            },
        };
        let out = run_on_source(&cmd, TC).unwrap();
        assert!(out.contains("cache:bypass"), "{out}");
        assert!(!out.contains("cache:hit"), "{out}");
    }

    #[test]
    fn serve_command_is_rejected_by_the_buffered_executor() {
        let err = run_on_source(
            &Command::Serve {
                file: String::new(),
                opts: ServiceOpts::default(),
                net: None,
            },
            TC,
        )
        .unwrap_err();
        assert!(err.contains("--stdin"), "{err}");
    }

    #[test]
    fn parse_args_serve_listen() {
        assert_eq!(
            parse_args(&args(&["serve", "f.dl", "--listen", "127.0.0.1:0"])).unwrap(),
            Command::Serve {
                file: "f.dl".into(),
                opts: ServiceOpts::default(),
                net: Some(NetOpts::for_addr("127.0.0.1:0")),
            }
        );
        // Network flags compose with service flags, in any order.
        assert_eq!(
            parse_args(&args(&[
                "serve",
                "f.dl",
                "--max-connections",
                "8",
                "--listen",
                "127.0.0.1:4004",
                "--max-concurrent",
                "2",
                "--drain-ms",
                "750",
                "--max-queue-wait-ms",
                "40",
                "--retry-after-ms",
                "15",
                "--idle-timeout-ms",
                "2000"
            ]))
            .unwrap(),
            Command::Serve {
                file: "f.dl".into(),
                opts: ServiceOpts {
                    max_concurrent: 2,
                    ..ServiceOpts::default()
                },
                net: Some(NetOpts {
                    listen: "127.0.0.1:4004".into(),
                    max_connections: 8,
                    idle_timeout_ms: 2000,
                    drain_ms: 750,
                    max_queue_wait_ms: 40,
                    retry_after_ms: 15,
                    postmortem: None,
                }),
            }
        );
        // Network flags without --listen are a usage error.
        let err = parse_args(&args(&[
            "serve",
            "f.dl",
            "--stdin",
            "--max-connections",
            "8",
        ]))
        .unwrap_err();
        assert!(err.contains("--listen"), "{err}");
        assert!(parse_args(&args(&["serve", "f.dl", "--listen"])).is_err());
        assert!(parse_args(&args(&[
            "serve",
            "f.dl",
            "--listen",
            "x",
            "--max-connections",
            "0"
        ]))
        .is_err());
        assert!(parse_args(&args(&[
            "serve",
            "f.dl",
            "--listen",
            "x",
            "--drain-ms",
            "abc"
        ]))
        .is_err());
    }

    #[test]
    fn net_opts_describe_a_net_config() {
        let mut opts = NetOpts::for_addr("127.0.0.1:0");
        opts.max_connections = 3;
        opts.idle_timeout_ms = 1500;
        opts.drain_ms = 900;
        opts.max_queue_wait_ms = 35;
        opts.retry_after_ms = 12;
        opts.postmortem = Some("/tmp/pm.jsonl".into());
        let config = opts.config();
        assert_eq!(config.max_connections, 3);
        assert_eq!(config.idle_timeout, Duration::from_millis(1500));
        assert_eq!(config.drain_deadline, Duration::from_millis(900));
        assert_eq!(config.max_queue_wait, Duration::from_millis(35));
        assert_eq!(config.retry_after_ms, 12);
        assert_eq!(
            config.postmortem,
            Some(std::path::PathBuf::from("/tmp/pm.jsonl"))
        );
    }

    #[test]
    fn parse_args_trace_and_postmortem() {
        // `serve --stdin --trace FILE` is a service option.
        assert_eq!(
            parse_args(&args(&["serve", "f.dl", "--stdin", "--trace", "t.jsonl"])).unwrap(),
            Command::Serve {
                file: "f.dl".into(),
                opts: ServiceOpts {
                    trace: Some("t.jsonl".into()),
                    ..ServiceOpts::default()
                },
                net: None,
            }
        );
        // `--postmortem FILE` is a network option and lands in NetOpts.
        match parse_args(&args(&[
            "serve",
            "f.dl",
            "--listen",
            "127.0.0.1:0",
            "--postmortem",
            "pm.jsonl",
        ]))
        .unwrap()
        {
            Command::Serve { net: Some(n), .. } => {
                assert_eq!(n.postmortem.as_deref(), Some("pm.jsonl"));
            }
            other => panic!("expected serve --listen, got {other:?}"),
        }
        // ... and therefore requires --listen.
        let err = parse_args(&args(&[
            "serve",
            "f.dl",
            "--stdin",
            "--postmortem",
            "pm.jsonl",
        ]))
        .unwrap_err();
        assert!(err.contains("--listen"), "{err}");
        assert!(parse_args(&args(&["serve", "f.dl", "--stdin", "--trace"])).is_err());
        assert!(parse_args(&args(&["serve", "f.dl", "--listen", "x", "--postmortem"])).is_err());
    }

    #[test]
    fn serve_trace_file_records_request_spans() {
        let dir = std::env::temp_dir().join("recurs_cli_lib_tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("serve_trace_{}.jsonl", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let opts = ServiceOpts {
            trace: Some(path.to_string_lossy().into_owned()),
            ..ServiceOpts::default()
        };
        serve_lines(&opts, b"?- P(1, y).\n!quit\n");
        let trace = std::fs::read_to_string(&path).unwrap();
        assert!(!trace.trim().is_empty(), "trace file is empty");
        let mut saw_span = false;
        for line in trace.lines() {
            let v = recurs_obs::jsonl::parse(line)
                .unwrap_or_else(|e| panic!("bad trace line `{line}`: {e}"));
            if matches!(v.get("kind"), Some(Value::Str(k)) if k == "span") {
                saw_span = true;
            }
        }
        assert!(saw_span, "no span events in {trace}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn serve_listen_on_source_announces_drains_and_serves() {
        use recurs_net::proto::json_str_field;

        let cancel = CancelToken::new();
        let (addr_tx, addr_rx) = std::sync::mpsc::channel::<String>();
        let worker_cancel = cancel.clone();
        let server = std::thread::spawn(move || {
            // A writer that hands the announce line to the test thread.
            struct Announce(std::sync::mpsc::Sender<String>, Vec<u8>);
            impl std::io::Write for Announce {
                fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                    self.1.extend_from_slice(buf);
                    Ok(buf.len())
                }
                fn flush(&mut self) -> std::io::Result<()> {
                    let text = String::from_utf8_lossy(&self.1).to_string();
                    let _ = self.0.send(text);
                    Ok(())
                }
            }
            let net = NetOpts::for_addr("127.0.0.1:0");
            serve_listen_on_source(
                TC,
                &ServiceOpts::default(),
                &net,
                worker_cancel,
                Announce(addr_tx, Vec::new()),
            )
        });
        let line = addr_rx
            .recv_timeout(Duration::from_secs(10))
            .expect("announce line");
        let addr = line
            .trim()
            .strip_prefix("listening on ")
            .unwrap_or_else(|| panic!("bad announce line: {line}"))
            .to_string();
        let mut client =
            recurs_net::Client::connect(&addr, Duration::from_secs(5)).expect("connect");
        let reply = client.roundtrip("?- P(1, y).").expect("query");
        assert_eq!(json_str_field(&reply, "type"), Some("answers"), "{reply}");
        // Fire the "signal": the watcher drains and run() returns a report.
        cancel.cancel();
        let report = server.join().expect("server thread").expect("serve ok");
        assert!(!report.forced, "an idle server must drain cleanly");
    }

    /// Runs the stdin line protocol over in-memory IO with a token that is
    /// never cancelled, so the session ends on EOF or `!quit`.
    fn serve_lines(opts: &ServiceOpts, input: &[u8]) -> String {
        let mut output = Vec::new();
        serve_stdin_impl(
            TC,
            opts,
            CancelToken::new(),
            Duration::from_secs(5),
            input,
            &mut output,
            |_| {},
        )
        .unwrap();
        String::from_utf8(output).unwrap()
    }

    #[test]
    fn serve_on_source_speaks_the_line_protocol() {
        let text = serve_lines(
            &ServiceOpts::default(),
            b"?- P(1, y).\n+A(4, 5).\n+E(4, 5).\n?- P(1, y).\n!quit\n",
        );
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4, "{text}");
        assert!(lines[0].contains("\"count\":3"), "{text}");
        assert!(lines[1].contains("\"version\":1"), "{text}");
        assert!(lines[2].contains("\"version\":2"), "{text}");
        assert!(lines[3].contains("\"count\":4"), "{text}");
    }

    #[test]
    fn serve_stdin_drained_speaks_the_protocol_without_a_signal() {
        let text = serve_lines(
            &ServiceOpts::default(),
            b"?- P(1, y).\n+A(4, 5).\n+E(4, 5).\n?- P(1, y).\n!stats\n!quit\n?- P(2, y).\n",
        );
        // One reply per line; `!quit` ends the session before the last line.
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 5, "{text}");
        assert!(lines[0].contains("\"count\":3"), "{text}");
        // Each update bumps the snapshot version.
        assert!(lines[1].contains("\"version\":1"), "{text}");
        assert!(lines[2].contains("\"version\":2"), "{text}");
        assert!(lines[3].contains("\"count\":4"), "{text}");
        assert!(lines[4].contains("\"type\":\"stats\""), "{text}");
    }

    #[test]
    fn serve_stdin_drained_stops_reading_after_cancel_and_reports_a_clean_drain() {
        // A pre-cancelled token: the loop must not start any request, and
        // the idle monitor must report exit code 0 (clean drain).
        let token = CancelToken::new();
        token.cancel();
        let input = b"?- P(1, y).\n" as &[u8];
        let mut output = Vec::new();
        let (code_tx, code_rx) = std::sync::mpsc::channel::<i32>();
        serve_stdin_impl(
            TC,
            &ServiceOpts::default(),
            token,
            Duration::from_secs(5),
            input,
            &mut output,
            move |code| {
                let _ = code_tx.send(code);
            },
        )
        .unwrap();
        assert!(output.is_empty(), "no request may start after the drain");
        let code = code_rx
            .recv_timeout(Duration::from_secs(5))
            .expect("monitor verdict");
        assert_eq!(code, 0, "an idle serve loop drains cleanly");
    }
}
