//! The untraced run: the program's own TCP server over a `QueryService`,
//! driven in a closed loop by `recurs_net::Client`, every reply checked.

use crate::inputs::{Inputs, Op};
use crate::reference::Graph;
use crate::report::{
    answer_set, answers_slice, mean, median, metric, quantile, reply_status, rss_peak_mb, Failure,
    Metric, Tally,
};
use recurs_datalog::database::Database;
use recurs_datalog::parser;
use recurs_datalog::rule::LinearRecursion;
use recurs_datalog::validate::validate_with_generic_exit;
use recurs_net::proto::{json_str_field, json_u64_field};
use recurs_net::{Client, DrainReport, NetConfig, NetServer, ShutdownHandle};
use recurs_serve::{QueryService, ServeConfig};
use std::collections::HashMap;
use std::io;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 9;
/// Client connect and reply timeout: far above any single operation.
const CLIENT_TIMEOUT: Duration = Duration::from_secs(120);

/// Parses the dataset text and validates the program, as `recurs serve`
/// does with a `.dl` file.
pub fn load(text: &str) -> Result<(LinearRecursion, Database), String> {
    let parsed = parser::parse(text).map_err(|e| format!("parse error: {e}"))?;
    let mut db = Database::new();
    let rules = db
        .load_facts(&parsed.program)
        .map_err(|e| format!("bad fact: {e}"))?;
    let lr = validate_with_generic_exit(&rules).map_err(|e| format!("invalid program: {e}"))?;
    Ok((lr, db))
}

/// The server configuration. Requests carry no `@deadline`, and at most
/// `nproc` connections are open, so nothing is shed or expires. The accept
/// loop's poll tick is 1 ms instead of the default 10 ms, which would put
/// up to 10 ms of sleep into every connect and so into `setup_s`.
fn net_config() -> NetConfig {
    NetConfig {
        tick: Duration::from_millis(1),
        ..NetConfig::default()
    }
}

/// A running service, its TCP server and one connected client.
pub struct Stack {
    pub service: Arc<QueryService>,
    pub client: Client,
    shutdown: ShutdownHandle,
    join: Option<JoinHandle<io::Result<DrainReport>>>,
}

impl Stack {
    pub fn start(text: &str) -> Result<Stack, String> {
        let (lr, db) = load(text)?;
        let service = Arc::new(QueryService::new(lr, db, ServeConfig::default()));
        let server = NetServer::bind(Arc::clone(&service), "127.0.0.1:0", net_config())
            .map_err(|e| format!("bind: {e}"))?;
        let addr = server
            .local_addr()
            .map_err(|e| format!("local address: {e}"))?
            .to_string();
        let (shutdown, join) = server.spawn();
        match Client::connect(&addr, CLIENT_TIMEOUT) {
            Ok(client) => Ok(Stack {
                service,
                client,
                shutdown,
                join: Some(join),
            }),
            Err(e) => {
                shutdown.drain();
                let _ = join.join();
                Err(format!("connect: {e}"))
            }
        }
    }

    /// Closes the client, drains the server and waits for its threads.
    pub fn stop(mut self) -> Result<(), String> {
        self.shutdown_now()
    }

    fn shutdown_now(&mut self) -> Result<(), String> {
        // Closing our end lets the connection thread finish; the drain then
        // waits for it.
        let _ = self.client.stream_mut().shutdown(std::net::Shutdown::Both);
        let Some(join) = self.join.take() else {
            return Ok(());
        };
        self.shutdown.drain();
        let report = join
            .join()
            .map_err(|_| "server thread panicked".to_string())?
            .map_err(|e| format!("server: {e}"))?;
        if report.forced || report.remaining_connections > 0 {
            return Err(format!("server drain was not clean: {report:?}"));
        }
        Ok(())
    }
}

impl Drop for Stack {
    fn drop(&mut self) {
        let _ = self.shutdown_now();
    }
}

/// Checks replies against the reference graph and the version chain.
#[derive(Debug)]
pub struct Checker {
    graph: Graph,
    version: u64,
    /// Verified answer arrays of keys whose later replies are compared
    /// byte for byte (the hot keys: their answers never change while read).
    verified: HashMap<u64, String>,
}

impl Checker {
    pub fn new(edges: &[(u64, u64)]) -> Checker {
        Checker {
            graph: Graph::new(edges),
            version: 0,
            verified: HashMap::new(),
        }
    }

    /// Checks one reply to `op` and, for a write, advances the reference.
    pub fn check(&mut self, op: Op, reply: &str) -> Result<(), Failure> {
        reply_status(reply)?;
        match op {
            Op::Read(key) => {
                if let Some(known) = self.verified.get(&key) {
                    return match answers_slice(reply) {
                        Some(s) if s == known => Ok(()),
                        _ => Err(Failure::WrongAnswer),
                    };
                }
                match answer_set(reply) {
                    Some(got) if got == self.graph.reachable(key) => Ok(()),
                    _ => Err(Failure::WrongAnswer),
                }
            }
            Op::Write { .. } => {
                // Each installed write reports a version exactly one higher.
                let installed = json_str_field(reply, "type") == Some("snapshot");
                let next = json_u64_field(reply, "version");
                if !installed || next != Some(self.version + 1) || !self.graph.apply(op) {
                    return Err(Failure::WrongAnswer);
                }
                self.version += 1;
                Ok(())
            }
        }
    }

    /// Remembers the (already checked) answer array of `key`.
    pub fn pin(&mut self, key: u64, reply: &str) {
        if let Some(s) = answers_slice(reply) {
            self.verified.insert(key, s.to_string());
        }
    }
}

/// Sends one operation and waits for its reply; the time is the round trip
/// in milliseconds.
pub fn roundtrip(client: &mut Client, line: &str) -> (f64, Result<String, Failure>) {
    let start = Instant::now();
    let reply = client.roundtrip(line).map_err(|_| Failure::Transport);
    (start.elapsed().as_secs_f64() * 1e3, reply)
}

/// Runs `ops` on one connection; returns read and write latencies.
fn run_ops(
    client: &mut Client,
    ops: &[Op],
    checker: &mut Checker,
    tally: &mut Tally,
) -> (Vec<f64>, Vec<f64>) {
    let (mut reads, mut writes) = (Vec::new(), Vec::new());
    for &op in ops {
        let (ms, reply) = roundtrip(client, &op.line());
        tally.record(reply.and_then(|r| checker.check(op, &r)));
        if op.is_read() {
            reads.push(ms);
        } else {
            writes.push(ms);
        }
    }
    (reads, writes)
}

/// One set-up: parse, build the service, bind, connect, warm up. Only the
/// program's work is timed: the reference graph is built before the clock
/// starts, and the warm-up replies are checked after it stops.
fn setup(inputs: &Inputs, tally: &mut Tally) -> Result<(Stack, Checker, f64, String), String> {
    let mut checker = Checker::new(&inputs.edges);
    let start = Instant::now();
    let mut stack = Stack::start(&inputs.text)?;
    let mut secs = start.elapsed().as_secs_f64();
    let fingerprint = stack.service.snapshot().fingerprint().to_string();
    let start = Instant::now();
    let replies: Vec<_> = inputs
        .warmup
        .iter()
        .map(|&op| roundtrip(&mut stack.client, &op.line()).1)
        .collect();
    secs += start.elapsed().as_secs_f64();
    for (&op, reply) in inputs.warmup.iter().zip(replies) {
        let outcome = reply.and_then(|r| {
            checker.check(op, &r)?;
            if let Op::Read(key) = op {
                checker.pin(key, &r);
            }
            Ok(())
        });
        tally.record(outcome);
    }
    Ok((stack, checker, secs, fingerprint))
}

/// The database ends as it began: `!snapshot` reports the starting
/// fingerprint, at the version the checked writes counted.
fn ends_as_it_began(stack: &mut Stack, checker: &Checker, fingerprint: &str) -> bool {
    let (_, end) = roundtrip(&mut stack.client, "!snapshot");
    let end = end.unwrap_or_default();
    let restored = json_str_field(&end, "fingerprint") == Some(fingerprint)
        && json_u64_field(&end, "version") == Some(checker.version);
    if !restored {
        eprintln!("perfbench: final snapshot does not match the start: {end}");
    }
    restored
}

/// The untraced run: returns whether every check held, the tally and the
/// end-to-end metrics.
pub fn run(inputs: &Inputs) -> Result<(bool, Tally, Vec<Metric>), String> {
    let mut tally = Tally::default();
    let (mut stack, mut checker, first_setup, fingerprint) = setup(inputs, &mut tally)?;

    // `cold_reads` and `hot_reads` time their writes on a twin service
    // built from the same text, so the writes' view never takes over the
    // reads. An untimed write pair builds the twin's view. Its timed write
    // pairs then alternate with equal slices of the reads, so reads and
    // writes both sample the whole run, not one half of it each: the
    // host's speed drifts over tens of seconds.
    let mut twin = if inputs.write_phase.is_empty() {
        None
    } else {
        let mut twin = Stack::start(&inputs.text)?;
        let mut twin_checker = Checker::new(&inputs.edges);
        run_ops(
            &mut twin.client,
            &inputs.view_warmup,
            &mut twin_checker,
            &mut tally,
        );
        Some((twin, twin_checker))
    };
    let pairs: Vec<&[Op]> = inputs.write_phase.chunks(2).collect();
    let slices = pairs.len().max(1);
    let n = inputs.measured.len();
    let (mut reads, mut writes) = (Vec::new(), Vec::new());
    let started = Instant::now();
    for i in 0..slices {
        let slice = &inputs.measured[i * n / slices..(i + 1) * n / slices];
        let (r, w) = run_ops(&mut stack.client, slice, &mut checker, &mut tally);
        reads.extend(r);
        writes.extend(w);
        if let (Some((twin, twin_checker)), Some(pair)) = (twin.as_mut(), pairs.get(i)) {
            writes.extend(run_ops(&mut twin.client, pair, twin_checker, &mut tally).1);
        }
    }
    let throughput = (reads.len() + writes.len()) as f64 / started.elapsed().as_secs_f64();

    let mut restored = ends_as_it_began(&mut stack, &checker, &fingerprint);
    if let Some((twin, twin_checker)) = twin.as_mut() {
        restored &= ends_as_it_began(twin, twin_checker, &fingerprint);
    }
    // Read before the remaining set-ups, whose freed memory would
    // otherwise stay in the allocator and inflate the peak at random.
    let rss = rss_peak_mb();
    stack.stop()?;
    if let Some((twin, _)) = twin {
        twin.stop()?;
    }

    let mut setups = vec![first_setup];
    for _ in 1..SETUP_REPS {
        let (stack, _, secs, _) = setup(inputs, &mut tally)?;
        setups.push(secs);
        stack.stop()?;
    }

    // The tails and throughput swing with the host's slow phases far more
    // than the medians do, and the write median with the mix of deletions
    // and restores, so they are shown here and not reported as metrics.
    println!(
        "tails {{\"read_p90_ms\":{},\"write_p50_ms\":{},\"write_p90_ms\":{},\"throughput_ops_s\":{}}}",
        quantile(&reads, 0.9),
        median(&writes),
        quantile(&writes, 0.9),
        throughput
    );
    let metrics = vec![
        metric("setup_s", median(&setups), "s"),
        metric("read_p50_ms", median(&reads), "ms"),
        // The mean, not the median: half the writes are deletions and half
        // restores, whose times form two clusters with the median between
        // them, where a small shift moves it far.
        metric("write_mean_ms", mean(&writes), "ms"),
        metric("rss_peak_mb", rss, "MB"),
    ];
    Ok((tally.failed() == 0 && restored, tally, metrics))
}
