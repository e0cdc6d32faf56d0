//! End-to-end and per-layer benchmark of the DPRLE solver.
//!
//! ```text
//! perfbench --workload fig12|synthetic|serve --seed N --seconds S --trace 0|1
//!           [--dprle PATH] [--work-dir DIR]
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with every switchable
//! telemetry channel off (`serve` keeps its metrics registry on, as a
//! monitored deployment would). `--trace 1` runs the separate traced pass
//! and reports the per-layer metrics. Either way the last line of stdout
//! is one JSON object: `correct`, `attempted`, `failed` and `metrics`.
//! Human-readable detail goes to stderr. See README.md for what each
//! metric means on each workload.

mod check;
mod fig12;
mod layers;
mod serve;
mod stats;
mod synthetic;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;

#[global_allocator]
static ALLOC: stats::CountingAlloc = stats::CountingAlloc;

/// End-to-end metrics: every workload reports each of them (README.md
/// gives the per-workload definition).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("pass_s", "s"),
    ("solve_p50_ms", "ms"),
    ("solve_p99_ms", "ms"),
    ("solves_per_s", "1/s"),
    ("lat_p50_ms", "ms"),
    ("lat_p99_ms", "ms"),
    ("max_rps", "req/s"),
];

/// The core spans whose self time the traced pass attributes, in journal
/// terms: `(phase, parent phase)` → metric stem. A `minimize` span is split
/// by the phase that opened it.
pub const CORE_LAYERS: &[(&str, &str, &str)] = &[
    ("reduce", "solve", "core.reduce"),
    ("gci", "solve", "core.gci"),
    ("enumerate", "gci", "core.enumerate"),
    ("minimize", "reduce", "core.minimize.reduce"),
    ("minimize", "gci", "core.minimize.gci"),
    ("verify", "solve", "core.verify"),
];

/// Per-layer metrics. A layer a workload does not exercise reads 0 there.
pub fn per_layer_metrics() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> = vec![
        ("lang.symex_s".into(), "s"),
        ("lang.to_system_s".into(), "s"),
    ];
    // Self times per round; `secure.` is the Figure 12 outlier row alone,
    // the unprefixed names every other solve of the workload.
    for prefix in ["", "secure."] {
        for (_, _, stem) in CORE_LAYERS {
            out.push((format!("{prefix}{stem}.self_ms"), "ms"));
        }
        out.push((format!("{prefix}core.solve.unattributed_ms"), "ms"));
        out.push((format!("{prefix}core.solve.wall_ms"), "ms"));
    }
    for name in [
        "automata.canonicalizations",
        "automata.fingerprint_hits",
        "automata.determinize.states_in",
        "automata.determinize.states_out",
        "automata.intersect.explored_states",
        "core.solve.product_states",
        "automata.inclusion.macrostates",
        "core.store.memo_hits",
        "core.store.memo_misses",
        "core.store.evictions",
    ] {
        out.push((name.into(), "count"));
    }
    for stage in ["queue_wait", "parse", "solve", "serialize"] {
        for q in ["p50", "p99"] {
            out.push((format!("serve.{stage}_ms.{q}"), "ms"));
        }
    }
    out.push(("serve.open_lat_ms.p50".into(), "ms"));
    out.push(("serve.open_lat_ms.p99".into(), "ms"));
    out.push(("serve.generator_late_ms.p99".into(), "ms"));
    out.push(("trace.overhead_ms".into(), "ms"));
    out.push(("trace.overhead_pct".into(), "%"));
    out
}

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// The `dprle` binary (serve workload only).
    pub dprle: Option<PathBuf>,
    /// Scratch directory for files the run writes (serve metrics).
    pub work_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut dprle = None;
    let mut work_dir = PathBuf::from(".bench_build/perfbench");
    let mut i = 0;
    while i < argv.len() {
        let value = argv
            .get(i + 1)
            .ok_or_else(|| format!("{} needs a value", argv[i]))?;
        match argv[i].as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            "--dprle" => dprle = Some(PathBuf::from(value)),
            "--work-dir" => work_dir = PathBuf::from(value),
            other => return Err(format!("unknown option {other}")),
        }
        i += 2;
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        dprle,
        work_dir,
    })
}

/// What a workload hands back: the operation counts, whether every
/// checked output was right, and its metric values by name.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Descriptions of wrong outputs (empty when correct).
    pub errors: Vec<String>,
    pub metrics: BTreeMap<String, f64>,
}

fn render(outcome: &Outcome, trace: bool) -> Result<String, String> {
    let table: Vec<(String, &str)> = if trace {
        per_layer_metrics()
    } else {
        END_TO_END
            .iter()
            .map(|(n, u)| (n.to_string(), *u))
            .collect()
    };
    let mut fields = Vec::with_capacity(table.len());
    for (name, unit) in &table {
        let value = match outcome.metrics.get(name) {
            Some(v) => *v,
            // Layers outside the workload did no work in it.
            None if trace => 0.0,
            None => return Err(format!("workload did not measure {name}")),
        };
        if !value.is_finite() {
            return Err(format!("{name} is not finite"));
        }
        fields.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    for name in outcome.metrics.keys() {
        if !table.iter().any(|(n, _)| n == name) {
            return Err(format!("workload measured unlisted metric {name}"));
        }
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.errors.is_empty(),
        outcome.attempted,
        outcome.failed,
        fields.join(", ")
    ))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = match args.workload.as_str() {
        "fig12" => fig12::run(&args),
        "synthetic" => synthetic::run(&args),
        "serve" => serve::run(&args),
        other => Err(format!("unknown workload {other}")),
    };
    let outcome = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(1);
        }
    };
    for e in outcome.errors.iter().take(20) {
        eprintln!("perfbench: WRONG OUTPUT: {e}");
    }
    for (name, value) in &outcome.metrics {
        eprintln!("  {name:<40} {value:.6}");
    }
    eprintln!(
        "  attempted {} failed {}",
        outcome.attempted, outcome.failed
    );
    match render(&outcome, args.trace) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(1)
        }
    }
}
