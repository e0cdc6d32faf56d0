//! `serve`: the real `dprle serve --sessions 2` binary over stdio.
//!
//! One generator (this process: the main thread writes, a reader thread
//! collects responses) drives two phases against one server:
//!
//! 1. open loop: requests are due at a fixed absolute rate,
//!    [`OFFERED_RPS`], whether or not earlier ones were answered; each
//!    response is timed from when its request was due;
//! 2. closed loop: [`WINDOW`] requests outstanding at all times, each
//!    response timed from when its request was written.
//!
//! The end-to-end metrics come from the closed-loop phase. On a shared
//! two-core virtual machine the open-loop latency is set by when idle
//! virtual CPUs wake up: its p90 ranged 1.4–7.1 ms and its p99 5.5–24 ms
//! over four runs of one build, so it is reported with the per-layer
//! metrics, which carry no bound.
//!
//! Traffic comes in rounds of [`ROUND`] requests drawn from a seeded mix
//! (the four `serve_bench` classes plus malformed requests) over a bounded
//! literal key space, so part of it hits the shared store's memo and the
//! rest inserts and, under the byte cap, evicts. Each round also sends the
//! hostile deeply nested regex to a short-lived server of its own: today it
//! overflows the parser's stack and aborts that process, and it is counted
//! as the round's failed operation.

use crate::stats::{median, quantile, SplitMix};
use crate::{Args, Outcome};
use dprle_core::{json_string, lookup, validate_jsonl, Json};
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, Command, Stdio};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

const SCHEMA: &str = include_str!("../../docs/serve.schema.json");

pub const SESSIONS: usize = 2;
/// Shared-store byte cap (`--store-max-bytes`).
pub const STORE_MAX_BYTES: u64 = 256 << 10;
/// Open-loop offered rate, requests per second (fixed, absolute).
pub const OFFERED_RPS: f64 = 1000.0;
/// Requests per round.
pub const ROUND: usize = 500;
/// Literal keys the requests draw from.
pub const KEYS: u64 = 1000;
/// The mix, per thousand requests. The weights keep the latency median
/// inside the `Sql` class and p99 inside the `Witness` class, never on a
/// boundary between two classes whose costs differ several-fold.
const MIX: &[(Class, u64)] = &[
    (Class::Malformed, 30),
    (Class::Smt, 200),
    (Class::Unsat, 200),
    (Class::Sql, 520),
    (Class::Witness, 50),
];
/// Outstanding requests in the closed-loop phase.
pub const WINDOW: usize = 8;
/// Share of `--seconds` the open-loop phase is sized for.
const OPEN_SHARE: f64 = 0.35;
/// Closed-loop rounds are sized for this share of `--seconds` at
/// [`CLOSED_SIZING_RPS`]; a faster server finishes them sooner.
const CLOSED_SHARE: f64 = 0.5;
const CLOSED_SIZING_RPS: f64 = 2500.0;
/// Server spawns timed for `setup_s`.
const SETUP_REPS: usize = 9;
/// Nesting depth of the hostile regex.
const HOSTILE_DEPTH: usize = 10_000;

#[derive(Clone, Copy, Debug, PartialEq)]
enum Class {
    /// The paper's SQL-injection query (sat).
    Sql,
    /// Two disjoint literals (unsat).
    Unsat,
    /// A concatenation with witnesses requested (sat).
    Witness,
    /// An SMT-LIB script (sat).
    Smt,
    /// Malformed; the answer must be a typed `parse-error`.
    Malformed,
}

struct Request {
    class: Class,
    key: u64,
    line: String,
}

fn request(id: usize, class: Class, key: u64) -> Request {
    let program = |text: String| json_string(&text);
    let line = match class {
        Class::Sql => format!(
            "{{\"id\":\"q{id}\",\"input\":{}}}",
            program(format!(
                "var v1; c1 := match(/[\\d]+$/); c2 := \"nid{key}_\"; \
                 c3 := match(/'/); v1 <= c1; c2 . v1 <= c3;"
            ))
        ),
        Class::Unsat => format!(
            "{{\"id\":\"q{id}\",\"input\":{}}}",
            program(format!(
                "var v; a := \"x{key}\"; b := \"y{key}\"; v <= a; v <= b;"
            ))
        ),
        Class::Witness => format!(
            "{{\"id\":\"q{id}\",\"input\":{},\"witness\":true}}",
            program(format!(
                "var v w; c := /{}/; pre := \"ab\"; pre . v . w <= c;",
                witness_pattern(key)
            ))
        ),
        Class::Smt => format!(
            "{{\"id\":\"q{id}\",\"language\":\"smtlib\",\"input\":{}}}",
            program(format!(
                "(declare-fun x () String)\n\
                 (assert (str.in_re x (re.++ (str.to_re \"k{key}\") (re.* (re.range \"a\" \"f\")))))\n\
                 (check-sat)"
            ))
        ),
        Class::Malformed => match key % 3 {
            0 => format!("{{\"id\":\"q{id}\",\"input\":\"var v;\",\"bogus\":{key}}}"),
            1 => format!("{{\"id\":\"q{id}\",\"input\":\"var v;\",\"jobs\":\"many\"}}"),
            _ => format!(
                "{{\"id\":\"q{id}\",\"input\":{}}}",
                program(format!("var v; v <= undeclared{key};"))
            ),
        },
    };
    Request { class, key, line }
}

/// The exact-match regex of a `Witness` request.
fn witness_pattern(key: u64) -> String {
    format!("[a-m]*q{}", key % 97)
}

/// One round of the seeded mix, request ids starting at `first_id`.
fn draw_round(rng: &mut SplitMix, first_id: usize) -> Vec<Request> {
    (0..ROUND)
        .map(|i| {
            let mut pick = rng.below(1000);
            let class = MIX
                .iter()
                .find(|(_, share)| {
                    let hit = pick < *share;
                    pick = pick.saturating_sub(*share);
                    hit
                })
                .expect("MIX sums to 1000")
                .0;
            request(first_id + i, class, rng.below(KEYS))
        })
        .collect()
}

/// The hostile request: a regex nested [`HOSTILE_DEPTH`] groups deep.
fn hostile_request() -> String {
    let pattern = format!(
        "{}a{}",
        "(".repeat(HOSTILE_DEPTH),
        ")".repeat(HOSTILE_DEPTH)
    );
    format!(
        "{{\"id\":\"hostile\",\"input\":{}}}",
        json_string(&format!("var v; c := match(/{pattern}/); v <= c;"))
    )
}

fn spawn(dprle: &Path, metrics_out: Option<&Path>) -> Result<Child, String> {
    let mut cmd = Command::new(dprle);
    cmd.arg("serve")
        .arg("--sessions")
        .arg(SESSIONS.to_string())
        .arg("--store-max-bytes")
        .arg(STORE_MAX_BYTES.to_string());
    if let Some(path) = metrics_out {
        cmd.arg("--metrics-out").arg(path);
    }
    cmd.stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .map_err(|e| format!("cannot start {}: {e}", dprle.display()))
}

/// Sends `line`, closes stdin, and returns every response line and
/// whether the process exited cleanly.
fn one_shot(mut child: Child, line: &str) -> Result<(Vec<String>, bool), String> {
    let mut stdin = child.stdin.take().expect("piped stdin");
    // A server that dies mid-request closes the pipe; that is the outcome
    // being observed, not a harness error.
    let _ = writeln!(stdin, "{line}");
    drop(stdin);
    let mut out = String::new();
    child
        .stdout
        .take()
        .expect("piped stdout")
        .read_to_string(&mut out)
        .map_err(|e| format!("reading server output: {e}"))?;
    let status = child
        .wait()
        .map_err(|e| format!("waiting for server: {e}"))?;
    Ok((out.lines().map(str::to_owned).collect(), status.success()))
}

/// Spawn-to-first-response time of a server. A server whose probe fails
/// is stopped.
fn time_first_response(
    child: &mut Child,
    stdin: &mut ChildStdin,
    reader: &mut impl BufRead,
    spawned: Instant,
) -> Result<f64, String> {
    let probe = request(0, Class::Sql, 0)
        .line
        .replacen("\"q0\"", "\"setup\"", 1);
    let mut line = String::new();
    let answered = writeln!(stdin, "{probe}")
        .and_then(|()| stdin.flush())
        .and_then(|()| reader.read_line(&mut line));
    if answered.is_err() || !line.contains("\"kind\":\"sat\"") {
        let _ = child.kill();
        let _ = child.wait();
        return Err(format!("probe failed: {answered:?}, answered {line:?}"));
    }
    Ok(spawned.elapsed().as_secs_f64())
}

/// Responses as the reader thread records them: (arrival, line) by
/// request index, plus how many have arrived.
#[derive(Default)]
struct Inbox {
    arrived: Vec<Option<(Instant, String)>>,
    count: usize,
    /// The server closed its output (or sent something unreadable).
    ended: bool,
}

fn request_index(line: &str) -> Option<usize> {
    let rest = &line[line.find("\"id\":\"q")? + 7..];
    rest[..rest.find('"')?].parse().ok()
}

struct Drive {
    /// Per open-loop request: when it was due.
    due: Vec<Instant>,
    /// Per request: when it was written.
    sent: Vec<Instant>,
    closed_start: Instant,
    closed_s: f64,
    responses: Vec<Option<(Instant, String)>>,
    server_rss_mb: f64,
}

/// Runs both phases on `child` (already past its probe) and shuts it down.
fn drive(
    child: &mut Child,
    mut stdin: ChildStdin,
    reader: BufReader<std::process::ChildStdout>,
    open: &[Request],
    closed: &[Request],
) -> Result<Drive, String> {
    let total = open.len() + closed.len();
    let inbox = Arc::new((
        Mutex::new(Inbox {
            arrived: vec![None; total],
            count: 0,
            ended: false,
        }),
        Condvar::new(),
    ));
    let collector = {
        let inbox = Arc::clone(&inbox);
        std::thread::spawn(move || -> Result<(), String> {
            let (lock, cv) = &*inbox;
            let result = reader.lines().try_for_each(|line| {
                let line = line.map_err(|e| format!("reading responses: {e}"))?;
                let now = Instant::now();
                let i = request_index(&line)
                    .filter(|&i| i < total)
                    .ok_or_else(|| format!("response without a known id: {line}"))?;
                let mut state = lock.lock().expect("inbox lock");
                state.arrived[i] = Some((now, line));
                state.count += 1;
                cv.notify_all();
                Ok(())
            });
            lock.lock().expect("inbox lock").ended = true;
            cv.notify_all();
            result
        })
    };
    let wait_until = |done: &dyn Fn(usize) -> bool| -> Result<(), String> {
        let (lock, cv) = &*inbox;
        let mut state = lock.lock().expect("inbox lock");
        while !done(state.count) {
            if state.ended {
                return Err("the server stopped answering".into());
            }
            state = cv.wait(state).expect("inbox lock");
        }
        Ok(())
    };
    let send = |stdin: &mut ChildStdin, line: &str| -> Result<(), String> {
        stdin
            .write_all(line.as_bytes())
            .and_then(|()| stdin.write_all(b"\n"))
            .and_then(|()| stdin.flush())
            .map_err(|e| format!("writing request: {e}"))
    };

    // Phase 1: open loop at the offered rate.
    let start = Instant::now() + Duration::from_millis(20);
    let mut due = Vec::with_capacity(open.len());
    let mut sent = Vec::with_capacity(total);
    for (i, r) in open.iter().enumerate() {
        let at = start + Duration::from_secs_f64(i as f64 / OFFERED_RPS);
        let now = Instant::now();
        if at > now {
            std::thread::sleep(at - now);
        }
        send(&mut stdin, &r.line)?;
        due.push(at);
        sent.push(Instant::now());
    }
    wait_until(&|n| n >= open.len())?;

    // Phase 2: closed loop, WINDOW requests outstanding.
    let closed_start = Instant::now();
    for (j, r) in closed.iter().enumerate() {
        let issued = open.len() + j;
        wait_until(&|n| issued - n < WINDOW)?;
        send(&mut stdin, &r.line)?;
        sent.push(Instant::now());
    }
    wait_until(&|n| n >= total)?;
    let server_rss_mb = crate::stats::peak_rss_mb(&child.id().to_string())?;
    drop(stdin);
    collector
        .join()
        .map_err(|_| "response reader panicked".to_string())??;
    let status = child
        .wait()
        .map_err(|e| format!("waiting for server: {e}"))?;
    if !status.success() {
        return Err(format!("server exited with {status}"));
    }
    let responses = std::mem::take(&mut inbox.0.lock().expect("inbox lock").arrived);
    let closed_end = responses[open.len()..]
        .iter()
        .filter_map(|r| r.as_ref().map(|(t, _)| *t))
        .max()
        .unwrap_or(closed_start);
    Ok(Drive {
        due,
        sent,
        closed_start,
        closed_s: (closed_end - closed_start).as_secs_f64(),
        responses,
        server_rss_mb,
    })
}

/// Checks one response against the schema and its request class.
fn check(req: &Request, line: &str) -> Result<Json, String> {
    validate_jsonl(SCHEMA, line).map_err(|e| format!("schema: {e}: {line}"))?;
    let json = Json::parse(line).map_err(|e| format!("{e}: {line}"))?;
    let obj = json.as_object().ok_or("response is not an object")?;
    let kind = lookup(obj, "kind").and_then(Json::as_str).unwrap_or("");
    let want = match req.class {
        Class::Sql | Class::Witness | Class::Smt => "sat",
        Class::Unsat => "unsat",
        Class::Malformed => "parse-error",
    };
    if kind != want {
        return Err(format!("{:?} request answered {kind}: {line}", req.class));
    }
    if req.class == Class::Witness {
        let ast = dprle_regex::parse(&witness_pattern(req.key)).map_err(|e| e.to_string())?;
        let assignments = lookup(obj, "witnesses")
            .and_then(Json::as_array)
            .ok_or("witnesses missing")?;
        for a in assignments {
            let mut word = b"ab".to_vec();
            for var in ["v", "w"] {
                let w = a
                    .as_array()
                    .and_then(|b| {
                        b.iter().find_map(|binding| {
                            let o = binding.as_object()?;
                            (lookup(o, "var")?.as_str()? == var)
                                .then(|| lookup(o, "witness")?.as_str())?
                        })
                    })
                    .ok_or_else(|| format!("no witness for {var}: {line}"))?;
                word.extend_from_slice(w.as_bytes());
            }
            if !dprle_regex::oracle_is_full_match(&ast, &word) {
                return Err(format!(
                    "witness {:?} not in /{}/",
                    String::from_utf8_lossy(&word),
                    witness_pattern(req.key)
                ));
            }
        }
    }
    if req.class == Class::Smt {
        let outputs = lookup(obj, "outputs").and_then(Json::as_array);
        if outputs.and_then(|o| o.first()).and_then(Json::as_str) != Some("sat") {
            return Err(format!("SMT-LIB request did not print sat: {line}"));
        }
    }
    Ok(json)
}

fn breakdown_ms(json: &Json, field: &str) -> Option<f64> {
    let b = lookup(json.as_object()?, "breakdown")?.as_object()?;
    Some(lookup(b, field)?.as_u64()? as f64 / 1e3)
}

fn stat(json: &Json, field: &str) -> u64 {
    json.as_object()
        .and_then(|o| lookup(o, "stats"))
        .and_then(Json::as_object)
        .and_then(|s| lookup(s, field))
        .and_then(Json::as_u64)
        .unwrap_or(0)
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let dprle = args
        .dprle
        .clone()
        .ok_or("the serve workload needs --dprle PATH")?;
    std::fs::create_dir_all(&args.work_dir)
        .map_err(|e| format!("{}: {e}", args.work_dir.display()))?;
    let metrics_path: PathBuf = args.work_dir.join("serve-metrics.jsonl");
    let _ = std::fs::remove_file(&metrics_path);

    // Set-up: spawn until the first response, several times; the last
    // server carries the workload.
    let mut setup = Vec::with_capacity(SETUP_REPS);
    let mut server = None;
    for rep in 0..SETUP_REPS {
        let spawned = Instant::now();
        let mut child = spawn(&dprle, Some(&metrics_path))?;
        let mut stdin = child.stdin.take().expect("piped stdin");
        let mut reader = BufReader::new(child.stdout.take().expect("piped stdout"));
        setup.push(time_first_response(
            &mut child,
            &mut stdin,
            &mut reader,
            spawned,
        )?);
        if rep + 1 == SETUP_REPS {
            server = Some((child, stdin, reader));
        } else {
            drop(stdin);
            child
                .wait()
                .map_err(|e| format!("waiting for server: {e}"))?;
        }
    }
    let (mut child, stdin, reader) = server.expect("SETUP_REPS > 0");

    let mut rng = SplitMix::new(args.seed);
    let open_rounds = ((args.seconds * OPEN_SHARE * OFFERED_RPS) / ROUND as f64)
        .round()
        .max(1.0) as usize;
    let closed_rounds = ((args.seconds * CLOSED_SHARE * CLOSED_SIZING_RPS) / ROUND as f64)
        .round()
        .max(1.0) as usize;
    let mut requests = Vec::new();
    for _ in 0..open_rounds + closed_rounds {
        let next = requests.len();
        requests.extend(draw_round(&mut rng, next));
    }
    let (open, closed) = requests.split_at(open_rounds * ROUND);
    let d = drive(&mut child, stdin, reader, open, closed).inspect_err(|_| {
        // Leave no server behind on a failed run.
        let _ = child.kill();
        let _ = child.wait();
    })?;

    // The hostile request, once per round, each to its own server.
    let rounds = open_rounds + closed_rounds;
    let hostile = hostile_request();
    let mut failed = 0u64;
    let mut errors = Vec::new();
    for _ in 0..rounds {
        let (lines, clean) = one_shot(spawn(&dprle, None)?, &hostile)?;
        match lines.first() {
            Some(line) if clean && line.contains("\"kind\":\"parse-error\"") => {}
            Some(line) => errors.push(format!("hostile request answered {line}")),
            None => failed += 1,
        }
    }

    let mut parsed = Vec::with_capacity(requests.len());
    for (req, resp) in requests.iter().zip(&d.responses) {
        match resp {
            Some((_, line)) => match check(req, line) {
                Ok(json) => parsed.push(Some(json)),
                Err(e) => {
                    errors.push(e);
                    parsed.push(None);
                }
            },
            None => {
                errors.push(format!("no response to {}", req.line));
                parsed.push(None);
            }
        }
    }
    let attempted = (requests.len() + rounds) as u64;
    let mut metrics = BTreeMap::new();
    let closed_json: Vec<&Json> = parsed[open.len()..].iter().flatten().collect();
    let closed_ms = |field: &str| -> Result<Vec<f64>, String> {
        let v: Vec<f64> = closed_json
            .iter()
            .filter_map(|j| breakdown_ms(j, field))
            .collect();
        if v.is_empty() {
            return Err(format!("no response carried {field}"));
        }
        Ok(v)
    };
    if args.trace {
        for (stage, field) in [
            ("queue_wait", "queue-wait-us"),
            ("parse", "parse-us"),
            ("solve", "solve-us"),
            ("serialize", "serialize-us"),
        ] {
            let v = closed_ms(field)?;
            metrics.insert(format!("serve.{stage}_ms.p50"), median(&v));
            metrics.insert(format!("serve.{stage}_ms.p99"), quantile(&v, 0.99));
        }
        // The open-loop phase: latency from when each request was due,
        // and how late the generator sent it.
        let open_lat: Vec<f64> = d
            .due
            .iter()
            .zip(&d.responses)
            .filter_map(|(due, r)| r.as_ref().map(|(t, _)| (*t - *due).as_secs_f64() * 1e3))
            .collect();
        metrics.insert("serve.open_lat_ms.p50".into(), median(&open_lat));
        metrics.insert("serve.open_lat_ms.p99".into(), quantile(&open_lat, 0.99));
        let late: Vec<f64> = d
            .due
            .iter()
            .zip(&d.sent)
            .map(|(due, sent)| (*sent - *due).as_secs_f64() * 1e3)
            .collect();
        metrics.insert("serve.generator_late_ms.p99".into(), quantile(&late, 0.99));
        let text = std::fs::read_to_string(&metrics_path)
            .map_err(|e| format!("{}: {e}", metrics_path.display()))?;
        let snap = dprle_core::metrics::parse_snapshot(&text)?;
        let mut counts: BTreeMap<String, u64> = snap
            .entries
            .iter()
            .map(|e| (e.name.clone(), e.headline()))
            .collect();
        // Canonicalizations and fingerprint hits are `SolveStats`
        // counters, which each response carries.
        let all: Vec<&Json> = parsed.iter().flatten().collect();
        for (name, field) in [
            ("automata.canonicalizations", "fingerprint-misses"),
            ("automata.fingerprint_hits", "fingerprint-hits"),
        ] {
            counts.insert(name.into(), all.iter().map(|j| stat(j, field)).sum());
        }
        crate::layers::insert_counts(&mut metrics, &counts);
    } else {
        // Closed-loop latency, from when each request was written.
        let lat: Vec<f64> = d.sent[open.len()..]
            .iter()
            .zip(&d.responses[open.len()..])
            .filter_map(|(sent, r)| r.as_ref().map(|(t, _)| (*t - *sent).as_secs_f64() * 1e3))
            .collect();
        let solve = closed_ms("solve-us")?;
        let solved = closed_json
            .iter()
            .filter(|j| {
                j.as_object()
                    .and_then(|o| lookup(o, "kind"))
                    .and_then(Json::as_str)
                    .is_some_and(|k| k == "sat" || k == "unsat")
            })
            .count();
        // A closed-loop round ends when its last response arrives.
        let mut round_s = Vec::with_capacity(closed_rounds);
        let mut prev = d.closed_start;
        for chunk in d.responses[open.len()..].chunks(ROUND) {
            let end = chunk
                .iter()
                .filter_map(|r| r.as_ref().map(|(t, _)| *t))
                .max()
                .unwrap_or(prev)
                .max(prev);
            round_s.push((end - prev).as_secs_f64());
            prev = end;
        }
        metrics.insert("setup_s".into(), median(&setup));
        metrics.insert("peak_rss_mb".into(), d.server_rss_mb);
        metrics.insert("pass_s".into(), median(&round_s));
        metrics.insert("solve_p50_ms".into(), median(&solve));
        metrics.insert("solve_p99_ms".into(), quantile(&solve, 0.99));
        metrics.insert("solves_per_s".into(), solved as f64 / d.closed_s);
        metrics.insert("lat_p50_ms".into(), median(&lat));
        metrics.insert("lat_p99_ms".into(), quantile(&lat, 0.99));
        metrics.insert("max_rps".into(), closed.len() as f64 / d.closed_s);
    }
    let _ = std::fs::remove_file(&metrics_path);
    Ok(Outcome {
        attempted,
        failed,
        errors,
        metrics,
    })
}
