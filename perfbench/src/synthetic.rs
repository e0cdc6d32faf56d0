//! `synthetic`: seeded random constraint systems plus branch fan-out
//! systems, solved one at a time with no program front end.
//!
//! A round is [`RANDOM_PER_ROUND`] draws of
//! `dprle_corpus::scaling::random_system` at the fixed [`CONFIG`] (every
//! drawn instance is kept, sat or unsat) followed by one
//! `multi_group_system(g, d)` per entry of [`FAN_OUT`]. Instance seeds come
//! from `--seed`; each round draws fresh ones.

use crate::check::{witness_tuple, Constraints};
use crate::layers;
use crate::stats::{median, quantile, SplitMix};
use crate::{Args, Outcome};
use dprle_automata::{LangStore, Metrics};
use dprle_core::{solve_traced, CollectSink, Solution, SolveOptions, SolveStats, System, Tracer};
use dprle_corpus::scaling::{multi_group_system, random_system, RandomSystemConfig};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

/// `RandomSystemConfig::default()`, spelled out so a change to the
/// default does not silently change the workload.
pub const CONFIG: RandomSystemConfig = RandomSystemConfig {
    vars: 3,
    subset_constraints: 3,
    concat_constraints: 1,
    machine_states: 5,
};
/// Large enough that the fan-out systems (1% of a round) sit above p99
/// rather than on it.
pub const RANDOM_PER_ROUND: usize = 200;
/// `(groups, disjuncts)`: each solves to exactly `disjuncts^groups`
/// assignments.
pub const FAN_OUT: &[(usize, usize)] = &[(2, 3), (3, 2)];
/// Brute-force bound for confirming `unsat`: every tuple of words over
/// `{a, b}` up to this length per variable.
const UNSAT_MAX_LEN: usize = 3;

enum Instance {
    Random(u64),
    FanOut(usize, usize),
}

impl Instance {
    fn build(&self) -> System {
        match *self {
            Instance::Random(seed) => random_system(seed, &CONFIG),
            Instance::FanOut(g, d) => multi_group_system(g, d),
        }
    }
}

fn draw_round(rng: &mut SplitMix) -> Vec<Instance> {
    let mut round: Vec<Instance> = (0..RANDOM_PER_ROUND)
        .map(|_| Instance::Random(rng.next_u64()))
        .collect();
    round.extend(FAN_OUT.iter().map(|&(g, d)| Instance::FanOut(g, d)));
    round
}

fn check(instance: &Instance, system: &System, solution: &Solution) -> Result<(), String> {
    let constraints = Constraints::new(system)?;
    if let Instance::FanOut(g, d) = *instance {
        let want = d.pow(g as u32);
        if solution.assignments().len() != want {
            return Err(format!(
                "multi_group_system({g}, {d}): {} disjuncts, want {want}",
                solution.assignments().len()
            ));
        }
    }
    match solution {
        Solution::Assignments(list) => {
            for a in list {
                let tuple = witness_tuple(system, a)?;
                if !constraints.satisfied_by(&tuple) {
                    return Err(format!("sat witness tuple {tuple:?} violates the system"));
                }
            }
            Ok(())
        }
        Solution::Unsat => match instance {
            Instance::Random(seed) => {
                match constraints.brute_force(system.num_vars(), b"ab", UNSAT_MAX_LEN) {
                    Some(t) => Err(format!("seed {seed}: unsat, but {t:?} satisfies it")),
                    None => Ok(()),
                }
            }
            Instance::FanOut(g, d) => Err(format!("multi_group_system({g}, {d}) answered unsat")),
        },
    }
}

/// One round's measurements.
struct Round {
    /// Per instance: (build ms, solve ms).
    times: Vec<(f64, f64)>,
    /// Per instance: heap growth at its peak during build + solve, bytes.
    heap: Vec<isize>,
    solve_s: f64,
    build_s: f64,
    /// Traced rounds: layer totals and counters.
    layers: layers::Totals,
    counts: BTreeMap<String, u64>,
}

fn round(instances: &[Instance], traced: bool, errors: &mut Vec<String>) -> Round {
    let metrics = if traced {
        Metrics::enabled()
    } else {
        Metrics::disabled()
    };
    let options = SolveOptions {
        metrics: metrics.clone(),
        ..SolveOptions::default()
    };
    let mut out = Round {
        times: Vec::with_capacity(instances.len()),
        solve_s: 0.0,
        build_s: 0.0,
        heap: Vec::with_capacity(instances.len()),
        layers: layers::Totals::default(),
        counts: BTreeMap::new(),
    };
    let mut stats = SolveStats::default();
    for instance in instances {
        let heap_base = crate::stats::heap_window();
        let t = Instant::now();
        let system = instance.build();
        let build = t.elapsed().as_secs_f64();
        let store = LangStore::interning(true);
        let sink = Arc::new(CollectSink::new());
        let tracer = if traced {
            Tracer::new(sink.clone())
        } else {
            Tracer::disabled()
        };
        let t = Instant::now();
        let (solution, run_stats) = solve_traced(&system, &options, &store, &tracer);
        let solve = t.elapsed();
        out.heap.push(crate::stats::heap_peak() - heap_base);
        out.times.push((build * 1e3, solve.as_secs_f64() * 1e3));
        out.build_s += build;
        out.solve_s += solve.as_secs_f64();
        if traced {
            if let Err(e) = out.layers.add(solve, &sink.take()) {
                errors.push(format!("trace journal: {e}"));
            }
            stats.absorb(&run_stats);
        }
        if let Err(e) = check(instance, &system, &solution) {
            errors.push(e);
        }
    }
    if traced {
        out.counts = layers::counters(&stats, &metrics);
    }
    out
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    crate::stats::count_heap();
    let mut rng = SplitMix::new(args.seed);
    let mut errors = Vec::new();
    let mut metrics = BTreeMap::new();
    let mut attempted = 0u64;
    let started = Instant::now();
    // Whole rounds, started while the time budget lasts.
    let more = || started.elapsed().as_secs_f64() < args.seconds;
    if args.trace {
        let (mut plain, mut traced) = (Vec::new(), Vec::new());
        // Each round's instances are solved untraced and then traced, each
        // time on freshly built systems; the difference is the tracing
        // overhead.
        while traced.is_empty() || more() {
            let instances = draw_round(&mut rng);
            plain.push(round(&instances, false, &mut errors));
            traced.push(round(&instances, true, &mut errors));
            attempted += 2 * instances.len() as u64;
        }
        layers::insert_times(
            &mut metrics,
            "",
            &traced.iter().map(|r| &r.layers).collect::<Vec<_>>(),
        );
        // Counters of the first round: its instances depend on the seed
        // alone, so they repeat exactly for a seed.
        layers::insert_counts(&mut metrics, &traced[0].counts);
        let plain_s = median(&plain.iter().map(|r| r.solve_s).collect::<Vec<_>>());
        let traced_s = median(&traced.iter().map(|r| r.solve_s).collect::<Vec<_>>());
        metrics.insert("trace.overhead_ms".into(), (traced_s - plain_s) * 1e3);
        metrics.insert(
            "trace.overhead_pct".into(),
            (traced_s / plain_s - 1.0) * 100.0,
        );
    } else {
        let mut rounds = Vec::new();
        while rounds.is_empty() || more() {
            let instances = draw_round(&mut rng);
            rounds.push(round(&instances, false, &mut errors));
            attempted += instances.len() as u64;
        }
        let solve_ms: Vec<f64> = rounds
            .iter()
            .flat_map(|r| r.times.iter().map(|t| t.1))
            .collect();
        let lat_ms: Vec<f64> = rounds
            .iter()
            .flat_map(|r| r.times.iter().map(|t| t.0 + t.1))
            .collect();
        let solve_total: f64 = rounds.iter().map(|r| r.solve_s).sum();
        let lat_total: f64 = lat_ms.iter().sum::<f64>() / 1e3;
        metrics.insert(
            "setup_s".into(),
            median(&rounds.iter().map(|r| r.build_s).collect::<Vec<_>>()),
        );
        metrics.insert(
            "peak_rss_mb".into(),
            median(
                &rounds
                    .iter()
                    .flat_map(|r| r.heap.iter().map(|&b| b as f64 / 1048576.0))
                    .collect::<Vec<_>>(),
            ),
        );
        metrics.insert(
            "pass_s".into(),
            median(&rounds.iter().map(|r| r.solve_s).collect::<Vec<_>>()),
        );
        metrics.insert("solve_p50_ms".into(), median(&solve_ms));
        metrics.insert("solve_p99_ms".into(), quantile(&solve_ms, 0.99));
        metrics.insert("solves_per_s".into(), solve_ms.len() as f64 / solve_total);
        metrics.insert("lat_p50_ms".into(), median(&lat_ms));
        metrics.insert("lat_p99_ms".into(), quantile(&lat_ms, 0.99));
        metrics.insert("max_rps".into(), lat_ms.len() as f64 / lat_total);
    }
    Ok(Outcome {
        attempted,
        failed: 0,
        errors,
        metrics,
    })
}
