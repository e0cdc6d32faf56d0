//! `fig12`: the paper's 17 Figure 12 programs, solved in repeated cold
//! passes. One pass is the paper's `T_S`: the time spent solving the
//! constraint systems symbolic execution produced for all 17 programs.
//!
//! Every timed solve gets a freshly built `System` (new `Lang` handles,
//! so no fingerprint cache carries over from an earlier pass) and a fresh
//! `LangStore`. The seed fixes the order of programs within each pass.

use crate::layers;
use crate::stats::{median, quantile, SplitMix};
use crate::{Args, Outcome};
use dprle_automata::{LangStore, Metrics};
use dprle_core::{
    solve_traced, CollectSink, Solution, SolveOptions, SolveStats, System, Tracer, VarId,
};
use dprle_corpus::{vulnerable_program, VulnSpec, FIG12_ROWS};
use dprle_lang::symex::SymexOptions;
use dprle_lang::{explore, run as interpret, to_system, Policy, Program, SinkReach};
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;
use std::time::Instant;

/// Set-up repetitions; `setup_s` is their median.
const SETUP_REPS: usize = 3;

struct Row {
    spec: &'static VulnSpec,
    program: Program,
    reaches: Vec<SinkReach>,
}

/// Program generation, symbolic execution and constraint generation for
/// all rows, with the time spent in `explore` and `to_system`.
fn prepare() -> Result<(Vec<Row>, f64, f64), String> {
    let policy = Policy::sql_quote();
    let (mut symex_s, mut to_system_s) = (0.0, 0.0);
    let mut rows = Vec::with_capacity(FIG12_ROWS.len());
    for spec in FIG12_ROWS.iter() {
        let program = vulnerable_program(spec);
        let t = Instant::now();
        let reaches = explore(&program, &SymexOptions::default())
            .map_err(|e| format!("{}: symbolic execution failed: {e}", spec.name))?;
        symex_s += t.elapsed().as_secs_f64();
        let t = Instant::now();
        let c = reaches
            .iter()
            .map(|r| to_system(r, &policy).0.num_constraints())
            .max()
            .unwrap_or(0);
        to_system_s += t.elapsed().as_secs_f64();
        if c != spec.c {
            return Err(format!("{}: |C| = {c}, published {}", spec.name, spec.c));
        }
        rows.push(Row {
            spec,
            program,
            reaches,
        });
    }
    Ok((rows, symex_s, to_system_s))
}

/// Fresh systems for one row (untimed).
fn systems(row: &Row) -> Vec<(System, BTreeMap<String, VarId>)> {
    let policy = Policy::sql_quote();
    row.reaches.iter().map(|r| to_system(r, &policy)).collect()
}

/// Replays a satisfying assignment's witnesses through the concrete
/// interpreter: the program must run to a query carrying a quote.
fn replay(row: &Row, vars: &BTreeMap<String, VarId>, solution: &Solution) -> Result<(), String> {
    let assignment = solution.first().expect("sat solutions carry an assignment");
    let inputs: HashMap<String, Vec<u8>> = vars
        .iter()
        .filter_map(|(name, v)| assignment.witness(*v).map(|w| (name.clone(), w)))
        .collect();
    let result = interpret(&row.program, &inputs)
        .map_err(|e| format!("{}: interpreter: {e}", row.spec.name))?;
    if result.exited || !result.any_query_contains(b'\'') {
        return Err(format!(
            "{}: witnesses {inputs:?} do not reach a quoted query",
            row.spec.name
        ));
    }
    Ok(())
}

/// A traced pass: layer totals of `[the other rows, secure]`, and the
/// pass's counters.
#[derive(Default)]
struct Traced {
    layers: [layers::Totals; 2],
    counts: BTreeMap<String, u64>,
}

struct Pass {
    /// Per solve, ms.
    solve_ms: Vec<f64>,
    /// Per row: building its systems plus solving them, ms.
    row_ms: Vec<f64>,
    total_s: f64,
    traced: Option<Traced>,
}

fn pass(rows: &[Row], order: &[usize], traced: bool, errors: &mut Vec<String>) -> Pass {
    let metrics = if traced {
        Metrics::enabled()
    } else {
        Metrics::disabled()
    };
    let options = SolveOptions {
        metrics: metrics.clone(),
        ..SolveOptions::default()
    };
    let mut out = Pass {
        solve_ms: Vec::new(),
        row_ms: Vec::new(),
        total_s: 0.0,
        traced: traced.then(Traced::default),
    };
    let mut stats = SolveStats::default();
    for &i in order {
        let row = &rows[i];
        let secure = usize::from(row.spec.heavy);
        let t = Instant::now();
        let built = systems(row);
        let build_s = t.elapsed().as_secs_f64();
        let mut row_s = 0.0;
        let mut exploitable = false;
        for (system, vars) in built {
            let store = LangStore::interning(true);
            let sink = Arc::new(CollectSink::new());
            let tracer = if traced {
                Tracer::new(sink.clone())
            } else {
                Tracer::disabled()
            };
            let t = Instant::now();
            let (solution, run_stats) = solve_traced(&system, &options, &store, &tracer);
            let dt = t.elapsed();
            row_s += dt.as_secs_f64();
            out.solve_ms.push(dt.as_secs_f64() * 1e3);
            if let Some(tr) = &mut out.traced {
                if let Err(e) = tr.layers[secure].add(dt, &sink.take()) {
                    errors.push(format!("{}: trace journal: {e}", row.spec.name));
                }
                stats.absorb(&run_stats);
            }
            if solution.is_sat() {
                exploitable = true;
                if let Err(e) = replay(row, &vars, &solution) {
                    errors.push(e);
                }
            }
        }
        if !exploitable {
            errors.push(format!("{}: no exploitable sink found", row.spec.name));
        }
        out.row_ms.push((build_s + row_s) * 1e3);
        out.total_s += row_s;
    }
    if let Some(tr) = &mut out.traced {
        tr.counts = layers::counters(&stats, &metrics);
    }
    out
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let mut setup = Vec::with_capacity(SETUP_REPS);
    let mut prepared = None;
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        let p = prepare()?;
        setup.push(t.elapsed().as_secs_f64());
        prepared = Some(p);
    }
    let (rows, symex_s, to_system_s) = prepared.expect("SETUP_REPS > 0");
    let mut rng = SplitMix::new(args.seed);
    let mut errors = Vec::new();
    let mut metrics = BTreeMap::new();
    let mut attempted = 0u64;
    let started = Instant::now();
    // Whole passes, started while the time budget lasts.
    let more = || started.elapsed().as_secs_f64() < args.seconds;
    let mut next_order = || {
        let mut order: Vec<usize> = (0..rows.len()).collect();
        rng.shuffle(&mut order);
        order
    };
    if args.trace {
        // Untraced and traced passes alternate over the same programs,
        // each on freshly built systems; their difference is the tracing
        // overhead.
        let (mut plain, mut traced) = (Vec::new(), Vec::new());
        while traced.is_empty() || more() {
            let is_traced = plain.len() > traced.len();
            let p = pass(&rows, &next_order(), is_traced, &mut errors);
            attempted += p.solve_ms.len() as u64;
            if is_traced {
                traced.push(p);
            } else {
                plain.push(p.total_s);
            }
        }
        let traced_layers: Vec<&Traced> = traced
            .iter()
            .map(|p| p.traced.as_ref().expect("traced pass"))
            .collect();
        for (k, prefix) in ["", "secure."].iter().enumerate() {
            let rounds: Vec<&layers::Totals> = traced_layers.iter().map(|t| &t.layers[k]).collect();
            layers::insert_times(&mut metrics, prefix, &rounds);
        }
        let counts = &traced_layers[0].counts;
        if traced_layers.iter().any(|t| &t.counts != counts) {
            errors.push("counters differ between identical traced passes".into());
        }
        layers::insert_counts(&mut metrics, counts);
        let plain_s = median(&plain);
        let traced_s = median(&traced.iter().map(|p| p.total_s).collect::<Vec<_>>());
        metrics.insert("trace.overhead_ms".into(), (traced_s - plain_s) * 1e3);
        metrics.insert(
            "trace.overhead_pct".into(),
            (traced_s / plain_s - 1.0) * 100.0,
        );
        metrics.insert("lang.symex_s".into(), symex_s);
        metrics.insert("lang.to_system_s".into(), to_system_s);
    } else {
        let (mut solve_ms, mut row_ms, mut pass_s) = (Vec::new(), Vec::new(), Vec::new());
        while pass_s.is_empty() || more() {
            let p = pass(&rows, &next_order(), false, &mut errors);
            attempted += p.solve_ms.len() as u64;
            solve_ms.extend(p.solve_ms);
            row_ms.extend(p.row_ms);
            pass_s.push(p.total_s);
        }
        let solve_total_s: f64 = pass_s.iter().sum();
        metrics.insert("setup_s".into(), median(&setup));
        metrics.insert("peak_rss_mb".into(), crate::stats::peak_rss_mb("self")?);
        metrics.insert("pass_s".into(), median(&pass_s));
        metrics.insert("solve_p50_ms".into(), median(&solve_ms));
        metrics.insert("solve_p99_ms".into(), quantile(&solve_ms, 0.99));
        metrics.insert("solves_per_s".into(), solve_ms.len() as f64 / solve_total_s);
        metrics.insert("lat_p50_ms".into(), median(&row_ms));
        metrics.insert("lat_p99_ms".into(), quantile(&row_ms, 0.99));
        metrics.insert(
            "max_rps".into(),
            row_ms.len() as f64 / (row_ms.iter().sum::<f64>() / 1e3),
        );
    }
    Ok(Outcome {
        attempted,
        failed: 0,
        errors,
        metrics,
    })
}
