//! Per-layer figures read from a finished run's `RunReport` and event
//! stream.

use crate::util::Outcome;
use adapipe::api::RunEvent;
use adapipe::runtime::report::RunReport;

/// Stage and node positions reported per layer (`s0..`, `n0..`).
pub const POSITIONS: usize = 8;

/// Controller, migration, report, stage and node figures of `report`.
pub fn report_layers(out: &mut Outcome, report: &RunReport) {
    let cycles = report.planning_cycles;
    let remaps = report.adaptations.len() as u64;
    out.layer("runtime.controller.cycles", cycles as f64, "count", "lower");
    if cycles > 0 {
        let keep = cycles.saturating_sub(remaps) as f64 / cycles as f64;
        out.layer("runtime.controller.keep_frac", keep, "frac", "higher");
    }
    out.layer("runtime.controller.remaps", remaps as f64, "count", "lower");
    out.layer(
        "runtime.migrations",
        report.migrations as f64,
        "count",
        "lower",
    );
    out.layer(
        "runtime.state_bytes_moved",
        report.state_bytes_moved as f64,
        "bytes",
        "lower",
    );
    out.layer(
        "runtime.report.latency_samples",
        report.latencies.len() as f64,
        "count",
        "lower",
    );
    for (s, stats) in report
        .stage_metrics
        .stages()
        .iter()
        .enumerate()
        .take(POSITIONS)
    {
        if let Some(mean) = stats.mean_service() {
            let ns = mean.as_secs_f64() * 1e9;
            out.layer(&format!("core.stage.service_ns.s{s}"), ns, "ns", "lower");
        }
    }
    for n in 0..report.node_busy.len().min(POSITIONS) {
        let busy = report.node_utilisation(n);
        out.layer(
            &format!("engine.node_busy_frac.n{n}"),
            busy,
            "frac",
            "lower",
        );
    }
}

/// Mean |realized − expected| ÷ expected over the window statistics in
/// `events`, or `None` when no window reported an expectation.
pub fn model_err(events: &[RunEvent]) -> Option<f64> {
    let errs: Vec<f64> = events
        .iter()
        .filter_map(|e| match e {
            RunEvent::WindowStats {
                realized,
                expected,
                paused: false,
                ..
            } if *expected > 0.0 => Some((realized - expected).abs() / expected),
            _ => None,
        })
        .collect();
    (!errs.is_empty()).then(|| errs.iter().sum::<f64>() / errs.len() as f64)
}
