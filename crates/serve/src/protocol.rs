//! The `recurs serve --stdin` line protocol: one request per line, one JSON
//! reply per line.
//!
//! Requests:
//!
//! * `?- P(c, X).` (the `?-` and trailing `.` are optional) — answer a query;
//! * `+ A(1, 2).` — insert a ground fact, installing a new snapshot version;
//! * `- A(1, 2).` — delete a ground fact;
//! * `+A(1, 2) -E(2, 3) +B(7, 8).` — a batched update group: any mix of
//!   signed ground facts on one line, applied atomically as one snapshot
//!   version (one maintenance pass, one version bump). Duplicate inserts and
//!   absent deletes are no-ops: an all-no-op group replies
//!   `{"type":"unchanged",...}` without bumping the version;
//! * `!explain P(c, X)` — answer the query *and* audit the plan: the reply
//!   carries the classification verdict (with I-graph cycle weights), the
//!   kernel choice and why, cache participation, budget headroom, and the
//!   request's span breakdown;
//! * `why P(1, 3)` — derivation provenance for a ground fact: a
//!   depth-bounded backward reconstruction of a derivation tree (or
//!   `"derived":false`), structurally verified before it is returned;
//! * `!stats` — dump the service-wide statistics;
//! * `!metrics` — dump the service metrics in Prometheus text exposition
//!   format (the one multi-line reply; its `# EOF` terminator line is the
//!   framing marker);
//! * `!snapshot` — report the current snapshot version and fingerprints;
//! * `!quit` — end the session;
//! * blank lines and `%`/`#` comments are ignored (no reply).
//!
//! Any request may carry a leading `@trace=<id>` directive (1–16 hex
//! chars) naming the request's trace id; without one a fresh id is minted
//! per query. A malformed or duplicated directive is a typed error.
//!
//! Every reply except `!metrics` is a single-line JSON object with an
//! `"ok"` field; errors are `{"ok":false,"error":"..."}` and never kill the
//! session.

use crate::error::ServeError;
use crate::service::{QueryService, Reply, UpdateOutcome};
use recurs_datalog::govern::EvalBudget;
use recurs_datalog::parser::parse_atom;
use recurs_datalog::relation::Tuple;
use recurs_datalog::symbol::Symbol;
use recurs_datalog::term::Term;
use recurs_ivm::{FactOp, DEFAULT_WHY_DEPTH};
use recurs_obs::TraceId;
use serde::{Serialize as _, Value};
use std::time::Duration;

/// Outcome of handling one protocol line.
pub enum LineOutcome {
    /// A reply to print.
    Reply(String),
    /// Nothing to print (blank line or comment).
    Silent,
    /// The client asked to end the session (`!quit`).
    Quit,
}

/// How a transport wants one request line evaluated. The stdin loop uses
/// the defaults (service budget, unbounded admission); the TCP front end
/// derives a per-request budget from the deadline and bounds the admission
/// wait so overload sheds instead of queueing.
#[derive(Debug, Clone, Default)]
pub struct LineOptions {
    /// Evaluate queries under this budget instead of the service default.
    pub budget: Option<EvalBudget>,
    /// Bound the admission wait; past it the query is shed with a typed
    /// `overloaded` reply. `None` queues unboundedly (the stdin behavior).
    pub max_queue_wait: Option<Duration>,
    /// The client backoff hint rendered into shed replies, in milliseconds.
    pub retry_after_ms: u64,
    /// The request's trace id, when the transport already resolved one
    /// (e.g. from a TCP frame's `@trace=` directive). A directive on the
    /// line itself takes precedence; with neither, queries mint a fresh id.
    pub trace: Option<TraceId>,
}

/// A typed protocol-level failure, rendered as a one-line JSON error reply.
enum ProtoError {
    /// A plain error message (`{"ok":false,"error":...}`).
    Message(String),
    /// Admission shed the request; the reply carries the retry-after hint.
    Overloaded {
        /// How long the request queued before being shed.
        waited: Duration,
    },
}

impl From<String> for ProtoError {
    fn from(msg: String) -> ProtoError {
        ProtoError::Message(msg)
    }
}

/// Handles one request line against the service under the default
/// [`LineOptions`] (service budget, unbounded admission).
pub fn handle_line(service: &QueryService, line: &str) -> LineOutcome {
    handle_line_with(service, line, &LineOptions::default())
}

/// Handles one request line under transport-supplied [`LineOptions`].
pub fn handle_line_with(service: &QueryService, line: &str, opts: &LineOptions) -> LineOutcome {
    let line = line.trim();
    if line.is_empty() || line.starts_with('%') || line.starts_with('#') {
        return LineOutcome::Silent;
    }
    if line == "!quit" {
        return LineOutcome::Quit;
    }
    if line == "!metrics" {
        // Prometheus text is inherently multi-line; its `# EOF` terminator
        // (not line count) frames the reply. Trailing newline is trimmed
        // because the run loop appends one.
        return LineOutcome::Reply(service.metrics_text().trim_end().to_string());
    }
    LineOutcome::Reply(match handle_request(service, line, opts) {
        Ok(v) => serde::json::to_string(&v),
        Err(ProtoError::Message(e)) => serde::json::to_string(&Value::object([
            ("ok", Value::Bool(false)),
            ("error", Value::string(e)),
        ])),
        Err(ProtoError::Overloaded { waited }) => serde::json::to_string(&Value::object([
            ("ok", Value::Bool(false)),
            ("type", Value::string("overloaded")),
            (
                "error",
                Value::string(format!(
                    "overloaded: no evaluation slot within {} ms, request shed",
                    waited.as_millis()
                )),
            ),
            ("retry_after_ms", opts.retry_after_ms.to_value()),
        ])),
    })
}

/// Strips leading `@trace=<id>` directives. A duplicate or malformed
/// directive is a typed error; the id (if any) and the remaining request
/// text are returned.
fn strip_trace_directive(line: &str) -> Result<(&str, Option<TraceId>), ProtoError> {
    let mut rest = line;
    let mut trace = None;
    while let Some(after) = rest.strip_prefix("@trace=") {
        let (token, remainder) = match after.split_once(char::is_whitespace) {
            Some((t, r)) => (t, r),
            None => (after, ""),
        };
        if trace.is_some() {
            return Err("duplicate @trace directive".to_string().into());
        }
        let id = TraceId::parse(token).map_err(|e| format!("bad @trace directive: {e}"))?;
        trace = Some(id);
        rest = remainder.trim_start();
    }
    Ok((rest, trace))
}

/// Strips the optional `?-` prefix and trailing `.` from a query body.
fn query_text(line: &str) -> &str {
    let text = line.strip_prefix("?-").unwrap_or(line).trim();
    text.strip_suffix('.').unwrap_or(text).trim()
}

fn handle_request(
    service: &QueryService,
    line: &str,
    opts: &LineOptions,
) -> Result<Value, ProtoError> {
    let (line, directive_trace) = strip_trace_directive(line)?;
    let line = line.trim();
    let trace = directive_trace.or(opts.trace);
    if line.is_empty() {
        return Err("empty request after @trace directive".to_string().into());
    }
    if line == "!stats" {
        return Ok(Value::object([
            ("ok", Value::Bool(true)),
            ("type", Value::string("stats")),
            ("stats", service.stats().to_value()),
        ]));
    }
    if line == "!snapshot" {
        let snap = service.snapshot();
        return Ok(Value::object([
            ("ok", Value::Bool(true)),
            ("type", Value::string("snapshot")),
            ("version", snap.version().to_value()),
            ("fingerprint", Value::string(snap.fingerprint().to_string())),
            (
                "program_fingerprint",
                Value::string(service.program_fingerprint().to_string()),
            ),
        ]));
    }
    if line == "!explain" {
        return Err("usage: !explain <query>".to_string().into());
    }
    if let Some(rest) = line.strip_prefix("!explain ") {
        let query = parse_atom(query_text(rest.trim())).map_err(|e| e.to_string())?;
        let default;
        let budget = match &opts.budget {
            Some(b) => b,
            None => {
                default = service.default_budget().clone();
                &default
            }
        };
        let trace = trace.unwrap_or_else(TraceId::mint);
        return match service.explain(&query, budget, opts.max_queue_wait, trace) {
            Ok(audit) => Ok(audit),
            Err(ServeError::Overloaded { waited }) => Err(ProtoError::Overloaded { waited }),
            Err(e) => Err(e.to_string().into()),
        };
    }
    if line.starts_with('+') || line.starts_with('-') {
        return apply_update_group(service, line).map_err(ProtoError::from);
    }
    if line.starts_with('!') {
        return Err(format!("unknown command: {line}").into());
    }
    if line == "why" {
        return Err("usage: why <ground fact>".to_string().into());
    }
    if let Some(rest) = line.strip_prefix("why ") {
        let text = rest.trim();
        let text = text.strip_suffix('.').unwrap_or(text).trim();
        let (pred, tuple) = parse_ground_fact(text)?;
        let default;
        let budget = match &opts.budget {
            Some(b) => b,
            None => {
                default = service.default_budget().clone();
                &default
            }
        };
        return service
            .why(pred, &tuple, DEFAULT_WHY_DEPTH, budget)
            .map_err(|e| e.to_string().into());
    }
    let text = query_text(line);
    let query = parse_atom(text).map_err(|e| e.to_string())?;
    let default;
    let budget = match &opts.budget {
        Some(b) => b,
        None => {
            default = service.default_budget().clone();
            &default
        }
    };
    let trace = trace.unwrap_or_else(TraceId::mint);
    let reply = match service.query_traced(&query, budget, opts.max_queue_wait, trace) {
        Ok(reply) => reply,
        Err(ServeError::Overloaded { waited }) => return Err(ProtoError::Overloaded { waited }),
        Err(e) => return Err(e.to_string().into()),
    };
    Ok(render_reply(text, &reply))
}

/// Splits one line into signed ground facts by scanning for `+`/`-` at
/// parenthesis depth 0, parses each, and applies the whole group as one
/// atomic update through the service's incremental-maintenance path.
fn apply_update_group(service: &QueryService, line: &str) -> Result<Value, String> {
    let ops = parse_update_group(line)?;
    match service.apply_update(&ops).map_err(|e| e.to_string())? {
        UpdateOutcome::Unchanged { version } => Ok(Value::object([
            ("ok", Value::Bool(true)),
            ("type", Value::string("unchanged")),
            ("version", version.to_value()),
        ])),
        UpdateOutcome::Installed {
            snapshot,
            inserted,
            deleted,
            maintenance,
        } => Ok(Value::object([
            ("ok", Value::Bool(true)),
            ("type", Value::string("snapshot")),
            ("version", snapshot.version().to_value()),
            (
                "fingerprint",
                Value::string(snapshot.fingerprint().to_string()),
            ),
            ("inserted", inserted.to_value()),
            ("deleted", deleted.to_value()),
            ("maintenance", Value::string(maintenance)),
        ])),
    }
}

fn parse_update_group(line: &str) -> Result<Vec<FactOp>, String> {
    // Sign positions at paren depth 0 delimit the facts; signs inside
    // argument lists (future negative numerals) stay untouched.
    let mut starts = Vec::new();
    let mut depth = 0usize;
    for (i, c) in line.char_indices() {
        match c {
            '(' => depth += 1,
            ')' => depth = depth.saturating_sub(1),
            '+' | '-' if depth == 0 => starts.push(i),
            _ => {}
        }
    }
    debug_assert!(!starts.is_empty(), "caller checked the leading sign");
    let mut ops = Vec::with_capacity(starts.len());
    for (n, &start) in starts.iter().enumerate() {
        let end = starts.get(n + 1).copied().unwrap_or(line.len());
        let insert = line[start..].starts_with('+');
        let text = line[start + 1..end].trim();
        let text = text.strip_suffix('.').unwrap_or(text).trim();
        let (pred, tuple) = parse_ground_fact(text)?;
        ops.push(if insert {
            FactOp::Insert(pred, tuple)
        } else {
            FactOp::Delete(pred, tuple)
        });
    }
    Ok(ops)
}

fn parse_ground_fact(text: &str) -> Result<(Symbol, Tuple), String> {
    let atom = parse_atom(text).map_err(|e| e.to_string())?;
    let mut values = Vec::with_capacity(atom.terms.len());
    for t in &atom.terms {
        match t {
            Term::Const(c) => values.push(*c),
            Term::Var(v) => return Err(format!("fact {text} is not ground: variable {v}")),
        }
    }
    Ok((atom.predicate, Tuple::from(values.as_slice())))
}

fn render_reply(query: &str, reply: &Reply) -> Value {
    let rows: Vec<Value> = reply
        .answers
        .iter_sorted()
        .into_iter()
        .map(|t| Value::array(t.iter().map(|v| Value::string(v.as_str()))))
        .collect();
    let mut fields = vec![
        ("ok", Value::Bool(true)),
        ("type", Value::string("answers")),
        ("query", Value::string(query)),
        ("count", reply.answers.len().to_value()),
        ("answers", Value::Array(rows)),
        ("stats", reply.stats.to_value()),
    ];
    if let Some(trace) = reply.trace {
        fields.push(("trace", Value::string(trace.to_string())));
    }
    Value::object(fields)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::ServeConfig;
    use recurs_datalog::database::Database;
    use recurs_datalog::parser::parse_program;
    use recurs_datalog::relation::Relation;
    use recurs_datalog::validate::validate_with_generic_exit;

    fn service() -> QueryService {
        let lr = validate_with_generic_exit(
            &parse_program("P(x, y) :- A(x, z), P(z, y).\nP(x, y) :- E(x, y).").unwrap(),
        )
        .unwrap();
        let mut db = Database::new();
        db.insert_relation("A", Relation::from_pairs([(1, 2), (2, 3)]));
        db.insert_relation("E", Relation::from_pairs([(1, 2), (2, 3)]));
        QueryService::new(lr, db, ServeConfig::default())
    }

    fn reply(service: &QueryService, line: &str) -> String {
        match handle_line(service, line) {
            LineOutcome::Reply(r) => r,
            _ => panic!("expected a reply for {line}"),
        }
    }

    #[test]
    fn query_reply_lists_sorted_answers() {
        let s = service();
        let r = reply(&s, "?- P(1, y).");
        assert!(r.contains("\"ok\":true"));
        assert!(r.contains("\"count\":2"));
        assert!(r.contains("[[\"2\"],[\"3\"]]"));
    }

    #[test]
    fn insert_installs_a_new_version_and_queries_see_it() {
        let s = service();
        let r = reply(&s, "+A(3, 4).");
        assert!(r.contains("\"version\":1"), "got {r}");
        let r = reply(&s, "+E(3, 4).");
        assert!(r.contains("\"version\":2"), "got {r}");
        let r = reply(&s, "P(1, y)");
        assert!(r.contains("\"count\":3"), "got {r}");
    }

    #[test]
    fn delete_fact_installs_a_new_version_and_queries_see_it() {
        let s = service();
        let r = reply(&s, "-E(2, 3).");
        assert!(r.contains("\"version\":1"), "got {r}");
        assert!(r.contains("\"deleted\":1"), "got {r}");
        assert!(r.contains("\"maintenance\":"), "got {r}");
        let r = reply(&s, "P(1, y)");
        assert!(r.contains("\"count\":1"), "got {r}"); // only E(1,2) is left
    }

    #[test]
    fn noop_updates_reply_unchanged_without_a_version_bump() {
        let s = service();
        let r = reply(&s, "+A(1, 2).");
        assert!(r.contains("\"type\":\"unchanged\""), "got {r}");
        assert!(r.contains("\"version\":0"), "got {r}");
        let r = reply(&s, "-A(9, 9).");
        assert!(r.contains("\"type\":\"unchanged\""), "got {r}");
        // Cancelling pair inside one group: also a no-op.
        let r = reply(&s, "+A(7, 8) -A(7, 8).");
        assert!(r.contains("\"type\":\"unchanged\""), "got {r}");
        assert!(reply(&s, "!snapshot").contains("\"version\":0"));
    }

    #[test]
    fn batched_update_group_is_one_atomic_version() {
        let s = service();
        let r = reply(&s, "+A(3, 4) +E(3, 4) -E(2, 3).");
        assert!(r.contains("\"version\":1"), "got {r}");
        assert!(r.contains("\"inserted\":2"), "got {r}");
        assert!(r.contains("\"deleted\":1"), "got {r}");
        // 1→2 (E), 3→4 (E), 1→2→3→4 via A-chain... E(2,3) is gone, so
        // P(1,*) = {2} ∪ A(1,2)∘P(2,*) and P(2,*) = A(2,3)∘P(3,*) = {4}.
        let r = reply(&s, "P(1, y)");
        assert!(r.contains("\"count\":2"), "got {r}");
        assert!(r.contains("[[\"2\"],[\"4\"]]"), "got {r}");
    }

    #[test]
    fn updates_to_the_served_predicate_are_rejected() {
        let s = service();
        let r = reply(&s, "+P(1, 3).");
        assert!(r.contains("\"ok\":false"), "got {r}");
        assert!(r.contains("derived"), "got {r}");
        let r = reply(&s, "-P(1, 2).");
        assert!(r.contains("\"ok\":false"), "got {r}");
    }

    #[test]
    fn malformed_lines_report_errors_without_ending_the_session() {
        let s = service();
        let r = reply(&s, "?- P(1, y");
        assert!(r.contains("\"ok\":false"), "got {r}");
        let r = reply(&s, "+A(x, y).");
        assert!(r.contains("not ground"), "got {r}");
        let r = reply(&s, "!bogus");
        assert!(r.contains("unknown command"), "got {r}");
        // Still serving.
        assert!(reply(&s, "?- P(1, y).").contains("\"ok\":true"));
    }

    #[test]
    fn comments_and_blanks_are_silent_and_quit_quits() {
        let s = service();
        assert!(matches!(handle_line(&s, ""), LineOutcome::Silent));
        assert!(matches!(handle_line(&s, "% note"), LineOutcome::Silent));
        assert!(matches!(handle_line(&s, "# note"), LineOutcome::Silent));
        assert!(matches!(handle_line(&s, "!quit"), LineOutcome::Quit));
    }

    #[test]
    fn metrics_reply_is_prometheus_text_ending_in_eof() {
        let s = service();
        reply(&s, "?- P(1, y).");
        let r = reply(&s, "!metrics");
        assert!(r.starts_with("# TYPE"), "got {r}");
        assert!(r.ends_with("# EOF"), "got {r}");
        assert!(
            r.contains("recurs_serve_queries_total{cache=\"miss\",kernel=\"magic\",outcome=\"complete\"} 1"),
            "got {r}"
        );
        assert!(r.contains("recurs_serve_query_seconds_bucket"), "got {r}");
    }

    #[test]
    fn trace_directive_tags_the_reply_and_minted_ids_appear_otherwise() {
        let s = service();
        let r = reply(&s, "@trace=deadbeef ?- P(1, y).");
        assert!(r.contains("\"ok\":true"), "got {r}");
        assert!(r.contains("\"trace\":\"00000000deadbeef\""), "got {r}");
        // Without a directive the service mints one — a 16-hex-digit id.
        let r = reply(&s, "?- P(1, y).");
        let tag = r.split("\"trace\":\"").nth(1).expect("minted trace id");
        assert_eq!(tag.split('"').next().unwrap().len(), 16, "got {r}");
    }

    #[test]
    fn malformed_trace_directives_are_typed_errors() {
        let s = service();
        let r = reply(&s, "@trace= ?- P(1, y).");
        assert!(r.contains("\"ok\":false"), "got {r}");
        assert!(r.contains("bad @trace directive"), "got {r}");
        let r = reply(&s, "@trace=xyz ?- P(1, y).");
        assert!(r.contains("bad @trace directive"), "got {r}");
        let r = reply(&s, "@trace=00112233445566778 ?- P(1, y).");
        assert!(r.contains("bad @trace directive"), "got {r}");
        let r = reply(&s, "@trace=1 @trace=2 ?- P(1, y).");
        assert!(r.contains("duplicate @trace directive"), "got {r}");
        let r = reply(&s, "@trace=1");
        assert!(r.contains("\"ok\":false"), "got {r}");
        // Still serving.
        assert!(reply(&s, "?- P(1, y).").contains("\"ok\":true"));
    }

    #[test]
    fn explain_replies_with_a_plan_audit() {
        let s = service();
        let r = reply(&s, "!explain P(1, y)");
        assert!(r.contains("\"ok\":true"), "got {r}");
        assert!(r.contains("\"type\":\"explain\""), "got {r}");
        assert!(r.contains("\"classification\""), "got {r}");
        assert!(r.contains("\"kernel\""), "got {r}");
        assert!(r.contains("\"cache\""), "got {r}");
        assert!(r.contains("\"spans\""), "got {r}");
        let r = reply(&s, "@trace=feed !explain P(1, y)");
        assert!(r.contains("\"trace\":\"000000000000feed\""), "got {r}");
        let r = reply(&s, "!explain");
        assert!(r.contains("usage"), "got {r}");
        let r = reply(&s, "!explain Q(1, y)");
        assert!(r.contains("\"ok\":false"), "got {r}");
    }

    #[test]
    fn why_replies_with_a_derivation_tree_or_not_derived() {
        let s = service();
        let r = reply(&s, "why P(1, 3).");
        assert!(r.contains("\"ok\":true"), "got {r}");
        assert!(r.contains("\"type\":\"why\""), "got {r}");
        assert!(r.contains("\"derived\":true"), "got {r}");
        assert!(r.contains("\"tree\""), "got {r}");
        assert!(r.contains("\"rule\":\"recursive\""), "got {r}");
        let r = reply(&s, "why P(3, 1).");
        assert!(r.contains("\"derived\":false"), "got {r}");
        let r = reply(&s, "why");
        assert!(r.contains("usage"), "got {r}");
        let r = reply(&s, "why P(x, y).");
        assert!(r.contains("\"ok\":false"), "got {r}");
        let r = reply(&s, "why Q(1, 2).");
        assert!(r.contains("\"ok\":false"), "got {r}");
        assert!(r.contains("not served"), "got {r}");
    }

    #[test]
    fn run_loop_replies_per_line_until_quit() {
        // Feed lines one at a time the way a serving loop does: one reply
        // per request line, and `!quit` ends the session.
        let s = service();
        let mut lines = Vec::new();
        for line in ["?- P(1, y).", "!stats", "!quit", "?- P(2, y)."] {
            match handle_line(&s, line) {
                LineOutcome::Reply(r) => lines.push(r),
                LineOutcome::Silent => {}
                LineOutcome::Quit => break,
            }
        }
        assert_eq!(lines.len(), 2, "quit must end the session: {lines:?}");
        assert!(lines[0].contains("\"type\":\"answers\""));
        assert!(lines[1].contains("\"type\":\"stats\""));
    }
}
