//! End-to-end subprocess tests of the `recurs` binary: the exit-code
//! contract (0 complete / 2 truncated / 1 error) and the budget flags, run
//! exactly as a shell user would.

use std::process::{Command, Output};

fn dataset(name: &str) -> String {
    format!("{}/../../datasets/{name}", env!("CARGO_MANIFEST_DIR"))
}

fn recurs(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_recurs"))
        .args(args)
        .output()
        .unwrap_or_else(|e| panic!("cannot spawn recurs: {e}"))
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

#[test]
fn complete_run_exits_zero() {
    let out = recurs(&[
        "run",
        &dataset("transitive_closure.dl"),
        "--engine",
        "indexed",
    ]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    assert!(stdout(&out).contains("engine:indexed"));
    assert!(!stdout(&out).contains("truncated"));
}

#[test]
fn tuple_ceiling_stops_class_c_with_exit_code_two() {
    // The acceptance workload: a class-C (unbounded) formula stopped by
    // `--max-tuples`, still printing sound partial answers.
    let out = recurs(&[
        "run",
        &dataset("unbounded_s9.dl"),
        "--check",
        "--engine",
        "indexed",
        "--max-tuples",
        "2",
    ]);
    assert_eq!(out.status.code(), Some(2), "{}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("truncated: tuple ceiling"), "{text}");
    assert!(text.contains("subset of the fixpoint"), "{text}");
    assert!(!text.contains("DISAGREES"), "{text}");
}

#[test]
fn zero_timeout_stops_before_any_work_with_exit_code_two() {
    let out = recurs(&[
        "run",
        &dataset("unbounded_s9.dl"),
        "--engine",
        "indexed",
        "--timeout-ms",
        "0",
    ]);
    assert_eq!(out.status.code(), Some(2), "{}", stderr(&out));
    assert!(
        stdout(&out).contains("truncated: deadline"),
        "{}",
        stdout(&out)
    );
}

#[test]
fn iteration_cap_truncates_the_oracle_engine() {
    let out = recurs(&[
        "run",
        &dataset("transitive_closure.dl"),
        "--engine",
        "oracle",
        "--max-iterations",
        "1",
    ]);
    assert_eq!(out.status.code(), Some(2), "{}", stderr(&out));
    assert!(
        stdout(&out).contains("truncated: iteration cap"),
        "{}",
        stdout(&out)
    );
}

#[test]
fn budget_flags_without_engine_are_a_usage_error() {
    let out = recurs(&[
        "run",
        &dataset("transitive_closure.dl"),
        "--max-tuples",
        "5",
    ]);
    assert_eq!(out.status.code(), Some(1));
    assert!(stderr(&out).contains("--engine"), "{}", stderr(&out));
}

#[test]
fn unreadable_file_exits_one() {
    let out = recurs(&["run", "no/such/file.dl", "--engine", "indexed"]);
    assert_eq!(out.status.code(), Some(1));
    assert!(stderr(&out).contains("cannot read"), "{}", stderr(&out));
}

#[test]
fn bad_usage_exits_one() {
    let out = recurs(&["run", &dataset("transitive_closure.dl"), "--bogus"]);
    assert_eq!(out.status.code(), Some(1));
    assert!(stderr(&out).contains("unknown option"), "{}", stderr(&out));
    // `--engine parallel` and `--threads` are usage errors too.
    let tc = dataset("transitive_closure.dl");
    for args in [
        &["run", &tc, "--engine", "parallel"][..],
        &["run", &tc, "--engine", "indexed", "--threads", "2"],
        &["batch", &tc, "--threads", "2"],
    ] {
        let out = recurs(args);
        assert_eq!(out.status.code(), Some(1), "{args:?}");
        assert!(stderr(&out).starts_with("error: "), "{}", stderr(&out));
    }
}

#[test]
fn invalid_program_exits_one() {
    // A syntactically valid file with no recursion is rejected by load().
    let dir = std::env::temp_dir().join("recurs_cli_process_tests");
    std::fs::create_dir_all(&dir).unwrap_or_else(|e| panic!("mkdir: {e}"));
    let path = dir.join("nonrecursive.dl");
    std::fs::write(&path, "Q(x) :- A(x, x).\nA(1, 1).\n?- Q(1).\n")
        .unwrap_or_else(|e| panic!("write: {e}"));
    let out = recurs(&[
        "run",
        path.to_string_lossy().as_ref(),
        "--engine",
        "indexed",
    ]);
    assert_eq!(out.status.code(), Some(1));
    assert!(stderr(&out).contains("invalid program"), "{}", stderr(&out));
}

#[test]
fn help_exits_zero_and_documents_exit_codes() {
    let out = recurs(&["help"]);
    assert_eq!(out.status.code(), Some(0));
    let text = stdout(&out);
    assert!(text.contains("--timeout-ms"), "{text}");
    assert!(text.contains("EXIT CODES"), "{text}");
}

/// Extracts the unsigned integer value of a flat `"key":N` pair from a
/// JSON line (the vendored serde has no parser, and these events are flat).
fn json_uint(line: &str, key: &str) -> Option<u64> {
    let pat = format!("\"{key}\":");
    let i = line.find(&pat)? + pat.len();
    let rest = &line[i..];
    let end = rest
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

#[test]
fn trace_file_reconstructs_the_run_and_cross_checks_stats_json() {
    // The acceptance scenario: a single `run --trace` on the TC dataset
    // produces a JSON-lines trace from which per-rule tuple counts,
    // per-iteration deltas, the class verdict, and the total wall time can
    // be reconstructed — and the reconstruction agrees with --stats-json.
    let dir = std::env::temp_dir().join("recurs_cli_process_tests");
    std::fs::create_dir_all(&dir).unwrap_or_else(|e| panic!("mkdir: {e}"));
    let trace_path = dir.join("tc_trace.jsonl");
    let out = recurs(&[
        "run",
        &dataset("transitive_closure.dl"),
        "--engine",
        "indexed",
        "--stats-json",
        "--trace",
        trace_path.to_string_lossy().as_ref(),
    ]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    let trace = std::fs::read_to_string(&trace_path).unwrap_or_else(|e| panic!("read trace: {e}"));
    let lines: Vec<&str> = trace.lines().collect();
    assert!(!lines.is_empty(), "trace is empty");
    for (i, line) in lines.iter().enumerate() {
        assert!(
            line.starts_with('{') && line.ends_with('}'),
            "trace line {i} is not a JSON object: {line}"
        );
        assert_eq!(json_uint(line, "seq"), Some(i as u64), "bad seq: {line}");
        assert!(json_uint(line, "ts_us").is_some(), "no ts_us: {line}");
    }

    // Classification provenance: the TC formula is class A3 and the engine
    // dispatches the frontier kernel.
    let verdict = lines
        .iter()
        .find(|l| l.contains("\"kind\":\"classify.verdict\""))
        .unwrap_or_else(|| panic!("no classify.verdict event in {trace}"));
    assert!(verdict.contains("\"class\":\"A5\""), "{verdict}");
    assert!(verdict.contains("\"kernel\":\"frontier\""), "{verdict}");
    assert!(verdict.contains("\"components\":["), "{verdict}");
    assert!(verdict.contains("\"weight\":"), "{verdict}");

    // Per-rule and per-iteration provenance.
    let rules: Vec<&&str> = lines
        .iter()
        .filter(|l| l.contains("\"kind\":\"engine.rule\""))
        .collect();
    assert!(!rules.is_empty(), "no engine.rule events in {trace}");
    for r in &rules {
        assert!(json_uint(r, "rows_in").is_some(), "{r}");
        assert!(json_uint(r, "derived").is_some(), "{r}");
        assert!(r.contains("\"head\":\"P\""), "{r}");
    }
    let iters: Vec<&&str> = lines
        .iter()
        .filter(|l| l.contains("\"kind\":\"engine.iteration\""))
        .collect();
    assert!(!iters.is_empty(), "no engine.iteration events in {trace}");

    // Cross-check the trace against the --stats-json line.
    let stats_stdout = stdout(&out);
    let stats_line = stats_stdout
        .lines()
        .find(|l| l.contains("\"tuples_derived\":"))
        .unwrap_or_else(|| panic!("no stats json in {stats_stdout}"));
    let iteration_count = json_uint(stats_line, "iteration_count").unwrap();
    assert_eq!(iters.len() as u64, iteration_count, "{trace}");
    let new_total: u64 = iters
        .iter()
        .map(|l| json_uint(l, "new_tuples").unwrap())
        .sum();
    assert_eq!(
        new_total,
        json_uint(stats_line, "tuples_derived").unwrap(),
        "trace new_tuples disagree with stats tuples_derived"
    );
    let complete = lines
        .iter()
        .find(|l| l.contains("\"kind\":\"engine.complete\""))
        .unwrap_or_else(|| panic!("no engine.complete event in {trace}"));
    assert!(
        json_uint(complete, "total_duration_us").is_some(),
        "{complete}"
    );
    assert_eq!(
        json_uint(complete, "tuples_derived").unwrap(),
        json_uint(stats_line, "tuples_derived").unwrap()
    );
}

#[test]
fn truncated_trace_names_the_cause() {
    let dir = std::env::temp_dir().join("recurs_cli_process_tests");
    std::fs::create_dir_all(&dir).unwrap_or_else(|e| panic!("mkdir: {e}"));
    let trace_path = dir.join("trunc_trace.jsonl");
    let out = recurs(&[
        "run",
        &dataset("unbounded_s9.dl"),
        "--engine",
        "indexed",
        "--max-tuples",
        "2",
        "--trace",
        trace_path.to_string_lossy().as_ref(),
    ]);
    assert_eq!(out.status.code(), Some(2), "{}", stderr(&out));
    let trace = std::fs::read_to_string(&trace_path).unwrap_or_else(|e| panic!("read trace: {e}"));
    let truncated = trace
        .lines()
        .find(|l| l.contains("\"kind\":\"engine.truncated\""))
        .unwrap_or_else(|| panic!("no engine.truncated event in {trace}"));
    assert!(
        truncated.contains("\"reason\":\"tuple ceiling\""),
        "{truncated}"
    );
}

/// Checks one Prometheus text exposition: `# TYPE`/`# EOF` comment lines
/// plus `name{labels} value` samples, nothing else. Returns the sample
/// count so callers can assert non-emptiness.
fn check_prometheus_text(text: &str) -> usize {
    let mut samples = 0;
    let mut saw_eof = false;
    for line in text.lines() {
        assert!(!saw_eof, "content after # EOF: {line}");
        if line == "# EOF" {
            saw_eof = true;
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut parts = rest.split_whitespace();
            let name = parts.next().unwrap_or_default();
            let kind = parts.next().unwrap_or_default();
            assert!(!name.is_empty(), "bad TYPE line: {line}");
            assert!(
                kind == "counter" || kind == "histogram",
                "bad TYPE kind: {line}"
            );
            continue;
        }
        // Sample: name{labels} value  (labels optional).
        let (series, value) = line
            .rsplit_once(' ')
            .unwrap_or_else(|| panic!("bad sample line: {line}"));
        assert!(
            value.parse::<f64>().is_ok(),
            "unparseable sample value: {line}"
        );
        let name_end = series.find('{').unwrap_or(series.len());
        let name = &series[..name_end];
        assert!(
            name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_'),
            "bad metric name: {line}"
        );
        if let Some(open) = series.find('{') {
            assert!(series.ends_with('}'), "unclosed label set: {line}");
            let labels = &series[open + 1..series.len() - 1];
            for pair in labels.split(',') {
                let (k, v) = pair
                    .split_once('=')
                    .unwrap_or_else(|| panic!("bad label pair in {line}"));
                assert!(!k.is_empty() && v.starts_with('"') && v.ends_with('"'));
            }
        }
        samples += 1;
    }
    assert!(saw_eof, "missing # EOF terminator:\n{text}");
    samples
}

#[test]
fn metrics_flag_appends_parseable_prometheus_text() {
    let out = recurs(&[
        "run",
        &dataset("transitive_closure.dl"),
        "--engine",
        "indexed",
        "--metrics",
    ]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    let text = stdout(&out);
    let metrics_start = text
        .find("# TYPE")
        .unwrap_or_else(|| panic!("no Prometheus text in {text}"));
    let samples = check_prometheus_text(&text[metrics_start..]);
    assert!(samples > 0);
    assert!(text.contains("recurs_engine_iterations_total"), "{text}");
    assert!(
        text.contains("recurs_engine_runs_total{kernel=\"frontier\"}"),
        "{text}"
    );
}

fn sigterm(child: &std::process::Child) {
    let status = Command::new("kill")
        .args(["-TERM", &child.id().to_string()])
        .status()
        .unwrap_or_else(|e| panic!("cannot run kill: {e}"));
    assert!(status.success(), "kill -TERM failed");
}

/// Spawns `recurs serve --listen 127.0.0.1:0 <extra>` and parses the
/// announce line for the ephemeral address.
fn spawn_serve_listen(extra: &[&str]) -> (std::process::Child, String) {
    use std::io::BufRead as _;
    let mut child = Command::new(env!("CARGO_BIN_EXE_recurs"))
        .args([
            "serve",
            &dataset("transitive_closure.dl"),
            "--listen",
            "127.0.0.1:0",
        ])
        .args(extra)
        .stdin(std::process::Stdio::null())
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .unwrap_or_else(|e| panic!("cannot spawn recurs serve --listen: {e}"));
    let out = child
        .stdout
        .take()
        .unwrap_or_else(|| panic!("no stdout pipe"));
    let mut line = String::new();
    std::io::BufReader::new(out)
        .read_line(&mut line)
        .unwrap_or_else(|e| panic!("read announce line: {e}"));
    let addr = line
        .trim()
        .strip_prefix("listening on ")
        .unwrap_or_else(|| panic!("bad announce line: {line:?}"))
        .to_string();
    (child, addr)
}

#[test]
fn serve_listen_process_answers_health_queries_and_metrics_over_tcp() {
    use std::time::Duration;
    let (mut child, addr) = spawn_serve_listen(&[]);
    let mut client =
        recurs_net::Client::connect(&addr, Duration::from_secs(5)).expect("connect to server");
    let health = client.roundtrip("!health").expect("health");
    assert!(health.contains("\"ok\":true"), "{health}");
    assert!(health.contains("\"state\":\"accepting\""), "{health}");
    let reply = client.roundtrip("?- P(1, y).").expect("query");
    assert!(reply.contains("\"type\":\"answers\""), "{reply}");
    let metrics = client.roundtrip("!metrics").expect("metrics");
    let samples = check_prometheus_text(&metrics);
    assert!(samples > 0, "{metrics}");
    assert!(metrics.contains("recurs_net_requests_total"), "{metrics}");
    assert!(metrics.contains("recurs_serve_queries_total"), "{metrics}");
    drop(client);
    sigterm(&child);
    let status = child.wait().unwrap_or_else(|e| panic!("wait: {e}"));
    assert_eq!(status.code(), Some(0), "an idle server drains cleanly");
}

#[test]
fn serve_listen_process_sigterm_mid_run_answers_every_in_flight_request() {
    use std::time::Duration;
    let (mut child, addr) = spawn_serve_listen(&["--drain-ms", "5000"]);
    let mut client =
        recurs_net::Client::connect(&addr, Duration::from_secs(5)).expect("connect to server");
    // Admission roundtrip first, so the drain cannot race the accept.
    client.roundtrip("!health").expect("admitted");
    const PIPELINED: u64 = 8;
    for i in 1..=PIPELINED {
        client
            .send(&format!("?- P({i}, y)."))
            .expect("pipelined send");
    }
    sigterm(&child);
    // Zero lost in-flight responses: every accepted request is answered, in
    // order, after the signal.
    for i in 1..=PIPELINED {
        let reply = client
            .recv()
            .unwrap_or_else(|e| panic!("lost in-flight reply {i}: {e:?}"));
        assert!(reply.contains("\"ok\":true"), "{reply}");
        assert!(reply.contains(&format!("P({i}, y)")), "{reply}");
    }
    // Then the drained server closes the connection cleanly.
    assert!(client.recv().is_err(), "expected a close after the drain");
    let status = child.wait().unwrap_or_else(|e| panic!("wait: {e}"));
    assert_eq!(status.code(), Some(0), "a clean drain exits 0");
}

#[test]
fn serve_stdin_sigterm_drains_with_exit_zero_while_stdin_stays_open() {
    use std::io::{BufRead as _, Write as _};
    let mut child = Command::new(env!("CARGO_BIN_EXE_recurs"))
        .args(["serve", &dataset("transitive_closure.dl"), "--stdin"])
        .stdin(std::process::Stdio::piped())
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .unwrap_or_else(|e| panic!("cannot spawn recurs serve: {e}"));
    let mut stdin = child.stdin.take().unwrap_or_else(|| panic!("no stdin"));
    stdin
        .write_all(b"?- P(1, y).\n")
        .unwrap_or_else(|e| panic!("write stdin: {e}"));
    stdin.flush().unwrap_or_else(|e| panic!("flush stdin: {e}"));
    let out = child.stdout.take().unwrap_or_else(|| panic!("no stdout"));
    let mut reply = String::new();
    std::io::BufReader::new(out)
        .read_line(&mut reply)
        .unwrap_or_else(|e| panic!("read reply: {e}"));
    assert!(reply.contains("\"type\":\"answers\""), "{reply}");
    // stdin stays open: the exit below is the drain, not an EOF return.
    sigterm(&child);
    let status = child.wait().unwrap_or_else(|e| panic!("wait: {e}"));
    assert_eq!(
        status.code(),
        Some(0),
        "SIGTERM drains the stdin loop to exit 0"
    );
    drop(stdin);
}

#[test]
fn serve_listen_rejects_an_unbindable_address_with_exit_one() {
    let out = recurs(&[
        "serve",
        &dataset("transitive_closure.dl"),
        "--listen",
        "256.0.0.1:0",
    ]);
    assert_eq!(out.status.code(), Some(1));
    assert!(stderr(&out).contains("cannot listen"), "{}", stderr(&out));
}

#[test]
fn serve_stdin_answers_metrics_with_parseable_prometheus_text() {
    use std::io::Write as _;
    let mut child = Command::new(env!("CARGO_BIN_EXE_recurs"))
        .args(["serve", &dataset("transitive_closure.dl"), "--stdin"])
        .stdin(std::process::Stdio::piped())
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .unwrap_or_else(|e| panic!("cannot spawn recurs serve: {e}"));
    child
        .stdin
        .take()
        .unwrap_or_else(|| panic!("no stdin"))
        .write_all(b"?- P(1, y).\n!metrics\n!quit\n")
        .unwrap_or_else(|e| panic!("write stdin: {e}"));
    let out = child
        .wait_with_output()
        .unwrap_or_else(|e| panic!("wait: {e}"));
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    let text = stdout(&out);
    let first_newline = text
        .find('\n')
        .unwrap_or_else(|| panic!("no reply: {text}"));
    assert!(
        text[..first_newline].contains("\"type\":\"answers\""),
        "{text}"
    );
    let metrics = &text[first_newline + 1..];
    let samples = check_prometheus_text(metrics);
    assert!(samples > 0, "{metrics}");
    assert!(metrics.contains("recurs_serve_queries_total"), "{metrics}");
    assert!(
        metrics.contains("recurs_serve_query_seconds_bucket"),
        "{metrics}"
    );
    assert!(
        metrics.contains("recurs_serve_cache_ops_total"),
        "{metrics}"
    );
}

#[test]
fn run_why_prints_a_derivation_tree_from_the_shell() {
    // P(1, 6) in the flight network: 1 -> 2 -> 5 -> 6.
    let out = recurs(&["run", &dataset("transitive_closure.dl"), "--why", "P(1, 6)"]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("P(1, 6) is derived"), "{text}");
    assert!(text.contains("[recursive rule]"), "{text}");
    assert!(text.contains("[edb]"), "{text}");

    let out = recurs(&["run", &dataset("transitive_closure.dl"), "--why", "P(6, 1)"]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    assert!(
        stdout(&out).contains("P(6, 1) is not derivable"),
        "{}",
        stdout(&out)
    );

    // A foreign predicate is a usage error (exit 1).
    let out = recurs(&["run", &dataset("transitive_closure.dl"), "--why", "Q(1, 6)"]);
    assert_eq!(out.status.code(), Some(1), "{}", stdout(&out));
    assert!(
        stderr(&out).contains("recursive predicate"),
        "{}",
        stderr(&out)
    );
}

#[test]
fn serve_stdin_answers_explain_and_why_with_a_chosen_trace_id() {
    use std::io::Write as _;
    let mut child = Command::new(env!("CARGO_BIN_EXE_recurs"))
        .args(["serve", &dataset("transitive_closure.dl"), "--stdin"])
        .stdin(std::process::Stdio::piped())
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .unwrap_or_else(|e| panic!("cannot spawn recurs serve: {e}"));
    child
        .stdin
        .take()
        .unwrap_or_else(|| panic!("no stdin"))
        .write_all(b"@trace=c0ffee !explain P(1, y).\nwhy P(1, 6).\n!quit\n")
        .unwrap_or_else(|e| panic!("write stdin: {e}"));
    let out = child
        .wait_with_output()
        .unwrap_or_else(|e| panic!("wait: {e}"));
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    let text = stdout(&out);
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 2, "{text}");
    // The explain audit echoes the client-supplied trace id and carries the
    // plan verdict, kernel choice, and span breakdown.
    assert!(lines[0].contains("\"type\":\"explain\""), "{text}");
    assert!(
        lines[0].contains("\"trace\":\"0000000000c0ffee\""),
        "{text}"
    );
    assert!(lines[0].contains("\"classification\""), "{text}");
    assert!(lines[0].contains("\"kernel\""), "{text}");
    assert!(lines[0].contains("\"spans\""), "{text}");
    // The why reply carries a verified derivation tree.
    assert!(lines[1].contains("\"type\":\"why\""), "{text}");
    assert!(lines[1].contains("\"derived\":true"), "{text}");
    assert!(lines[1].contains("\"tree\""), "{text}");
}
