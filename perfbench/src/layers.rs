//! Per-layer attribution from the program's own trace journal.
//!
//! `TraceReport` phase totals are cumulative (a `minimize` inside `gci`
//! counts toward both), so they cannot be summed. This module computes
//! each span's *self* time — its duration minus the part its child spans
//! cover — from the `SpanStart`/`SpanEnd` events and their parent ids, and
//! files it under the layer named by `(phase, parent phase)` in
//! [`crate::CORE_LAYERS`]. The `solve` span's own self time, and any span
//! outside that table, is left unattributed.

use crate::stats::median;
use dprle_automata::Metrics;
use dprle_core::{SolveStats, TraceEvent, TraceEventKind};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;

/// Layer totals of a round of traced solves: harness-timed solve wall time
/// and span self times, in µs.
#[derive(Default)]
pub struct Totals {
    wall_us: u64,
    self_us: BTreeMap<&'static str, u64>,
}

impl Totals {
    /// Adds one solve that took `wall` and left the journal `events`.
    pub fn add(&mut self, wall: Duration, events: &[TraceEvent]) -> Result<(), String> {
        self.wall_us += wall.as_micros() as u64;
        for (stem, us) in self_times_us(events)? {
            *self.self_us.entry(stem).or_insert(0) += us;
        }
        Ok(())
    }
}

/// Inserts, under `prefix`, the median over `rounds` of each layer's self
/// time and of the solve wall time (ms), and the wall time the layers leave
/// unattributed, so that the layers plus `core.solve.unattributed_ms` add
/// up to `core.solve.wall_ms`.
pub fn insert_times(metrics: &mut BTreeMap<String, f64>, prefix: &str, rounds: &[&Totals]) {
    let ms = |f: &dyn Fn(&Totals) -> u64| {
        median(&rounds.iter().map(|t| f(t) as f64 / 1e3).collect::<Vec<_>>())
    };
    let wall = ms(&|t| t.wall_us);
    let mut attributed = 0.0;
    for (_, _, stem) in crate::CORE_LAYERS {
        let v = ms(&|t| t.self_us.get(stem).copied().unwrap_or(0));
        attributed += v;
        metrics.insert(format!("{prefix}{stem}.self_ms"), v);
    }
    metrics.insert(format!("{prefix}core.solve.wall_ms"), wall);
    metrics.insert(
        format!("{prefix}core.solve.unattributed_ms"),
        wall - attributed,
    );
}

/// The counters of a traced round: fingerprint misses (canonicalizations)
/// and hits from the summed `SolveStats`, plus every registry counter.
pub fn counters(stats: &SolveStats, registry: &Metrics) -> BTreeMap<String, u64> {
    let mut out = BTreeMap::from([
        (
            "automata.canonicalizations".to_string(),
            stats.fingerprint_misses as u64,
        ),
        (
            "automata.fingerprint_hits".to_string(),
            stats.fingerprint_hits as u64,
        ),
    ]);
    if let Some(snap) = registry.snapshot() {
        out.extend(snap.entries.iter().map(|e| (e.name.clone(), e.headline())));
    }
    out
}

/// Inserts every per-layer metric that `counts` holds.
pub fn insert_counts(metrics: &mut BTreeMap<String, f64>, counts: &BTreeMap<String, u64>) {
    for (name, _) in crate::per_layer_metrics() {
        if let Some(v) = counts.get(&name) {
            metrics.insert(name, *v as f64);
        }
    }
}

struct Span {
    phase: String,
    parent: u64,
    start: u64,
    end: Option<u64>,
}

/// Self time in µs per layer stem (`core.gci`, …) over all spans of
/// `events`. Spans of different requests (distinct `request_id` tags) are
/// kept apart, since each request numbers its spans from 1.
pub fn self_times_us(events: &[TraceEvent]) -> Result<BTreeMap<&'static str, u64>, String> {
    let mut spans: BTreeMap<(Option<Arc<str>>, u64), Span> = BTreeMap::new();
    for e in events {
        match &e.kind {
            TraceEventKind::SpanStart {
                span,
                parent,
                phase,
                ..
            } => {
                spans.insert(
                    (e.request_id.clone(), *span),
                    Span {
                        phase: phase.clone(),
                        parent: *parent,
                        start: e.ts_us,
                        end: None,
                    },
                );
            }
            TraceEventKind::SpanEnd { span, .. } => {
                let s = spans
                    .get_mut(&(e.request_id.clone(), *span))
                    .ok_or_else(|| format!("span {span} ends before it starts"))?;
                s.end = Some(e.ts_us);
            }
            _ => {}
        }
    }
    let mut duration: BTreeMap<(Option<Arc<str>>, u64), u64> = BTreeMap::new();
    for (key, s) in &spans {
        let end = s
            .end
            .ok_or_else(|| format!("span {} ({}) never ends", key.1, s.phase))?;
        duration.insert(key.clone(), end.saturating_sub(s.start));
    }
    let mut child_time: BTreeMap<(Option<Arc<str>>, u64), u64> = BTreeMap::new();
    for (key, s) in &spans {
        if s.parent != 0 {
            *child_time.entry((key.0.clone(), s.parent)).or_insert(0) += duration[key];
        }
    }
    let mut out: BTreeMap<&'static str, u64> = BTreeMap::new();
    for (key, s) in &spans {
        let parent_phase = match spans.get(&(key.0.clone(), s.parent)) {
            Some(p) => p.phase.as_str(),
            None => "",
        };
        let Some((_, _, stem)) = crate::CORE_LAYERS
            .iter()
            .find(|(phase, parent, _)| *phase == s.phase && *parent == parent_phase)
        else {
            continue;
        };
        let own = duration[key].saturating_sub(child_time.get(key).copied().unwrap_or(0));
        *out.entry(stem).or_insert(0) += own;
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(ts_us: u64, kind: TraceEventKind) -> TraceEvent {
        TraceEvent {
            seq: 0,
            ts_us,
            request_id: None,
            kind,
        }
    }

    fn start(ts: u64, span: u64, parent: u64, phase: &str) -> TraceEvent {
        ev(
            ts,
            TraceEventKind::SpanStart {
                span,
                parent,
                phase: phase.into(),
                node: None,
                group: None,
            },
        )
    }

    fn end(ts: u64, span: u64, phase: &str) -> TraceEvent {
        ev(
            ts,
            TraceEventKind::SpanEnd {
                span,
                phase: phase.into(),
            },
        )
    }

    #[test]
    fn nested_spans_count_once() {
        let events = vec![
            start(0, 1, 0, "solve"),
            start(10, 2, 1, "gci"),
            start(20, 3, 2, "enumerate"),
            end(50, 3, "enumerate"),
            start(50, 4, 2, "minimize"),
            end(60, 4, "minimize"),
            end(70, 2, "gci"),
            start(70, 5, 1, "verify"),
            end(75, 5, "verify"),
            end(80, 1, "solve"),
        ];
        let t = self_times_us(&events).expect("well nested");
        assert_eq!(t["core.gci"], 20);
        assert_eq!(t["core.enumerate"], 30);
        assert_eq!(t["core.minimize.gci"], 10);
        assert_eq!(t["core.verify"], 5);
        // The solve span's own 15 µs is not a layer.
        assert_eq!(t.values().sum::<u64>(), 65);
    }
}
