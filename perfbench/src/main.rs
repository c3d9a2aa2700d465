//! End-to-end and per-layer benchmark of the adaptive pipeline, driven
//! through the public `adapipe::api` facade.
//!
//! ```text
//! adapipe-perfbench --workload <chain_wire|dag_keyed|adapt_step|sim_grid>
//!                   --seed <n> --seconds <s> --trace <0|1> [--trace-out <file>]
//! ```
//!
//! With `--trace 0` the run prints every end-to-end metric; with
//! `--trace 1` it records spans around each call into a layer and prints
//! the per-layer metrics. Either way the last line of standard output is
//! one JSON object `{"correct", "attempted", "failed", "metrics"}`, and
//! any output that differs from the benchmark's own reference makes the
//! process exit with code 1.

mod adapt_step;
mod chain_wire;
mod dag_keyed;
mod layers;
mod load;
mod report;
mod sim_grid;
mod trace;
mod util;

use adapipe::core::spec::PipelineSpec;
use adapipe::engine::{calibrate_host, VNodeSpec};
use adapipe::gridsim::net::{LinkSpec, Topology};
use adapipe::gridsim::time::SimTime;
use adapipe::mapper::mapping::Mapping;
use adapipe::runtime::controller::ControllerConfig;
use layers::ControlInputs;
use load::Leg;
use std::collections::BTreeMap;
use trace::span;
use util::{median, mix, Outcome};

/// Seconds of load before the timed window of a closed-loop leg.
pub const WARMUP_S: f64 = 0.3;

/// Command-line arguments.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub trace_out: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        trace_out: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 120.0) {
                    return Err("--seconds must be in (0, 120]".into());
                }
            }
            "--trace" => args.trace = value == "1",
            "--trace-out" => args.trace_out = Some(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

/// A record larger than three words, so it spills out of the inline
/// `Payload` into a pooled block.
#[derive(Clone, Debug, PartialEq)]
pub struct Record {
    pub i: u64,
    pub key: u64,
    pub n: u64,
    pub a: u64,
    pub b: u64,
    pub c: u64,
}

impl Record {
    pub fn sample(seed: u64) -> Record {
        Record {
            i: seed,
            key: mix(seed),
            n: 1,
            a: 2,
            b: 3,
            c: 4,
        }
    }
}

/// Counts `leg`'s attempts and failures into `out`.
fn account<O>(out: &mut Outcome, leg: &Leg<O>) {
    out.attempted += leg.pushed;
    out.failed += leg.failed();
}

/// The end-to-end metrics of a threaded closed-loop leg.
pub fn threaded_e2e<O>(out: &mut Outcome, leg: &Leg<O>, setups: &[f64]) {
    account(out, leg);
    let (p50, p99) = leg.latency_p50_p99();
    out.e2e("setup_s", median(setups), "s", "lower");
    out.e2e("items_per_s", leg.items_per_s(), "1/s", "higher");
    out.e2e("latency_p50_ms", p50, "ms", "lower");
    out.e2e("latency_p99_ms", p99, "ms", "lower");
    out.info("latency_samples", leg.latency_samples());
    out.info("timed_items", leg.timed_items);
}

/// `api.spawn_s` (median `Pipeline::spawn` span) and `api.push_batch_s`
/// (time inside `push_batch` and `push`) from the recorded spans.
pub fn api_span_layers(out: &mut Outcome) {
    let spawn = median(&trace::durations_s("api.spawn"));
    out.layer("api.spawn_s", spawn, "s", "lower");
    let push = trace::agg("api.push_batch").total_ns + trace::agg("api.push").total_ns;
    out.layer("api.push_batch_s", push as f64 / 1e9, "s", "lower");
}

/// The facade's per-layer figures of the traced legs.
fn api_layers<O>(out: &mut Outcome, traced: &[&Leg<O>]) {
    let sum = |f: fn(&Leg<O>) -> f64| traced.iter().map(|l| f(l)).sum::<f64>();
    api_span_layers(out);
    let hits = sum(|l| l.try_next_hits as f64) / sum(|l| l.try_next_calls as f64).max(1.0);
    out.layer("api.try_next_hit_frac", hits, "frac", "higher");
    let drains: Vec<f64> = traced.iter().map(|l| l.drain_s).collect();
    out.layer("api.drain_s", median(&drains), "s", "lower");
    let stalls = sum(|l| l.stalls as f64);
    out.layer("api.backpressure_stalls", stalls, "count", "lower");
    let wait = sum(|l| l.stall_wait_s);
    out.layer("api.backpressure_wait_s", wait, "s", "lower");
    let samples = sum(|l| l.latency_samples() as f64);
    out.layer("api.latency_samples", samples, "count", "higher");
}

/// What the threaded probes need to know about a workload.
pub struct ThreadedShape<'a> {
    pub spec: PipelineSpec,
    pub mapping: Mapping,
    pub vnodes: Vec<VNodeSpec>,
    pub controller: ControllerConfig,
    /// Keys of the workload's item stream (raw ids, hashed with `fnv1a`).
    pub keys: &'a [u64],
    /// `(stage, shards)` of the keyed stage, if the workload has one.
    pub keyed: Option<(usize, usize)>,
    /// Items the run was configured with (the controller's remaining work).
    pub items: u64,
    /// Wall seconds the run lasted.
    pub seconds: f64,
}

/// Payload and routing costs a stage boundary pays, in ns.
pub struct HopCosts {
    pub payload_ns: f64,
    pub route_ns: f64,
}

/// Routing, payload and state probes on a workload's `mapping`, its
/// keyed stage `(stage, shards)` and its raw keys (hashed with `fnv1a`,
/// as the keyed stages do); `spill` is the workload's largest item.
pub fn data_plane_probes(
    out: &mut Outcome,
    mapping: &Mapping,
    (keyed_stage, shards): (usize, usize),
    keys: &[u64],
    spill: &Record,
) -> HopCosts {
    let hashes: Vec<u64> = keys
        .iter()
        .map(|k| adapipe::state::fnv1a(&k.to_le_bytes()))
        .collect();
    let route_ns = layers::route_ns(mapping);
    let mut stage_shards = vec![0; mapping.len()];
    stage_shards[keyed_stage] = shards;
    let keyed_ns = layers::route_keyed_ns(mapping, stage_shards, keyed_stage, &hashes);
    let payload_ns = layers::payload_ns("core.payload.inline", &0x5EED_u64);
    let spill_ns = layers::payload_ns("core.payload.spill", spill);
    let (shard_ns, skew) = layers::shard_probe(keys, shards);
    out.layer("runtime.routing.route_ns", route_ns, "ns", "lower");
    out.layer("runtime.routing.route_keyed_ns", keyed_ns, "ns", "lower");
    out.layer("core.payload.inline_ns", payload_ns, "ns", "lower");
    out.layer("core.payload.spill_ns", spill_ns, "ns", "lower");
    out.layer("state.shard_of_ns", shard_ns, "ns", "lower");
    out.layer("state.shard_skew", skew, "ratio", "lower");
    HopCosts {
        payload_ns,
        route_ns,
    }
}

/// Every layer probe of a threaded workload: routing, payload, state,
/// monitor, mapper and controller, all on the workload's own inputs.
pub fn threaded_probes(out: &mut Outcome, shape: &ThreadedShape<'_>, spill: &Record) -> HopCosts {
    let keyed = shape.keyed.unwrap_or((0, 4));
    let hop = data_plane_probes(out, &shape.mapping, keyed, shape.keys, spill);

    // Availability as the engine samples it: every 25 ms of the run.
    let at = |t: f64| -> Vec<f64> {
        shape
            .vnodes
            .iter()
            .map(|v| v.effective_rate(SimTime::from_secs_f64(t)))
            .collect()
    };
    let steps = (shape.seconds / 0.025).ceil().max(1.0) as usize;
    let series: Vec<Vec<(f64, f64)>> = shape
        .vnodes
        .iter()
        .map(|v| {
            (0..steps)
                .map(|k| {
                    let t = k as f64 * 0.025;
                    (t, v.load.availability(SimTime::from_secs_f64(t)))
                })
                .collect()
        })
        .collect();
    out.layer(
        "monitor.observe_predict_ns",
        layers::observe_predict_ns(&series),
        "ns",
        "lower",
    );

    let mut profile = shape.spec.profile();
    profile.fuses_colocated = true;
    let topology = Topology::uniform(shape.vnodes.len(), LinkSpec::local());
    let rates = at(0.0);
    let inputs = ControlInputs {
        profile: &profile,
        topology: &topology,
        mapping: &shape.mapping,
        rates: &rates,
        controller: &shape.controller,
    };
    control_probes(out, &inputs, shape.seconds, 0.1, shape.items, at);
    hop
}

/// Mapper probes plus a `Controller::consider` replay, one call per
/// `interval` of a run lasting `seconds`, with the rates `rates_at(t)`.
/// Returns the consider cost in µs.
pub fn control_probes(
    out: &mut Outcome,
    inputs: &ControlInputs<'_>,
    seconds: f64,
    interval: f64,
    items: u64,
    rates_at: impl Fn(f64) -> Vec<f64>,
) -> f64 {
    let (eval_us, plan_ms, decide_ns) = layers::mapper_probe(inputs);
    out.layer("mapper.evaluate_us", eval_us, "us", "lower");
    out.layer("mapper.plan_ms", plan_ms, "ms", "lower");
    out.layer("mapper.should_remap_ns", decide_ns, "ns", "lower");
    let ticks: Vec<(SimTime, Vec<f64>)> = (1..=((seconds / interval).ceil().max(1.0) as usize))
        .map(|k| {
            let t = k as f64 * interval;
            (SimTime::from_secs_f64(t), rates_at(t))
        })
        .collect();
    let state_bytes: Vec<u64> = vec![0; inputs.profile.stages()];
    let us = layers::consider_us(inputs, &ticks, items, &state_bytes);
    out.layer("runtime.controller.consider_us", us, "us", "lower");
    us
}

/// The per-layer figures of a closed-loop workload. `leg(seconds,
/// traced)` runs one leg; four legs of a quarter of the run each go
/// untraced, traced, traced, untraced, so a drift in host speed cancels
/// out of `trace.overhead_frac` (the untraced over the traced rate − 1).
/// Also reports the facade, report and probe figures, the
/// single-threaded baseline `serial` (ns per item) and
/// `engine.residual_ns_per_item`: the wall time per item the timed
/// layers do not explain (inbox, credit, envelope and collector).
pub fn closed_loop_layers<O>(
    out: &mut Outcome,
    seconds: f64,
    mut leg: impl FnMut(f64, bool) -> Leg<O>,
    shape: &ThreadedShape<'_>,
    spill: &Record,
    serial: impl FnOnce() -> f64,
) {
    let quarter = seconds / 4.0;
    let legs = [
        leg(quarter, false),
        leg(quarter, true),
        leg(quarter, true),
        leg(quarter, false),
    ];
    for l in &legs {
        account(out, l);
    }
    let plain_rate = (legs[0].items_per_s() + legs[3].items_per_s()) / 2.0;
    let traced_rate = (legs[1].items_per_s() + legs[2].items_per_s()) / 2.0;
    out.layer(
        "trace.overhead_frac",
        plain_rate / traced_rate - 1.0,
        "frac",
        "lower",
    );
    trace::set_enabled(true);
    api_layers(out, &[&legs[1], &legs[2]]);
    report::report_layers(out, &legs[1].handle.report);
    let serial_ns = span("bench.serial", serial);
    let hop = threaded_probes(out, shape, spill);
    let hops = shape.mapping.len() as f64;
    let residual = 1e9 / plain_rate - serial_ns - hops * (hop.payload_ns + hop.route_ns);
    out.layer("engine.residual_ns_per_item", residual, "ns", "lower");
    out.layer("baseline.serial_ns_per_item", serial_ns, "ns", "lower");
}

/// Every per-layer metric as (name, unit, better), in the order
/// `BENCHMARK.json` lists them. A metric a workload does not exercise
/// reads 0.
fn per_layer_names() -> Vec<(String, &'static str, &'static str)> {
    let mut names: Vec<(String, &'static str, &'static str)> = Vec::new();
    let mut add = |n: &str, unit, better| names.push((n.to_string(), unit, better));
    for (n, u, b) in [
        ("api.spawn_s", "s", "lower"),
        ("api.push_batch_s", "s", "lower"),
        ("api.try_next_hit_frac", "frac", "higher"),
        ("api.drain_s", "s", "lower"),
        ("api.backpressure_stalls", "count", "lower"),
        ("api.backpressure_wait_s", "s", "lower"),
        ("api.latency_samples", "count", "higher"),
        ("gen.lag_p99_ms", "ms", "lower"),
        ("runtime.routing.route_ns", "ns", "lower"),
        ("runtime.routing.route_keyed_ns", "ns", "lower"),
        ("runtime.controller.cycles", "count", "lower"),
        ("runtime.controller.keep_frac", "frac", "higher"),
        ("runtime.controller.consider_us", "us", "lower"),
        ("runtime.controller.remaps", "count", "lower"),
        ("runtime.controller.recover_s", "s", "lower"),
        ("runtime.migrations", "count", "lower"),
        ("runtime.state_bytes_moved", "bytes", "lower"),
        ("runtime.model_err", "frac", "lower"),
        ("runtime.report.latency_samples", "count", "lower"),
        ("mapper.evaluate_us", "us", "lower"),
        ("mapper.plan_ms", "ms", "lower"),
        ("mapper.should_remap_ns", "ns", "lower"),
        ("monitor.observe_predict_ns", "ns", "lower"),
        ("core.payload.inline_ns", "ns", "lower"),
        ("core.payload.spill_ns", "ns", "lower"),
        ("core.sim.static_s", "s", "lower"),
        ("core.sim.makespan_s", "s", "lower"),
        ("core.sim.oracle_frac", "frac", "higher"),
        ("core.sim.wall_items_per_s", "1/s", "higher"),
    ] {
        add(n, u, b);
    }
    for s in 0..report::POSITIONS {
        add(&format!("core.stage.service_ns.s{s}"), "ns", "lower");
    }
    for n in 0..report::POSITIONS {
        add(&format!("engine.node_busy_frac.n{n}"), "frac", "lower");
    }
    for (n, u, b) in [
        ("engine.residual_ns_per_item", "ns", "lower"),
        ("state.shard_of_ns", "ns", "lower"),
        ("state.shard_skew", "ratio", "lower"),
        ("baseline.serial_ns_per_item", "ns", "lower"),
        ("trace.overhead_frac", "frac", "lower"),
        ("trace.spans", "count", "lower"),
        ("budget.sim_gap_frac", "frac", "lower"),
        ("host.nproc", "count", "higher"),
        ("host.mspin_per_s", "Mspin/s", "higher"),
    ] {
        add(n, u, b);
    }
    for layer in LAYERS {
        add(&format!("self_s.{layer}"), "s", "lower");
    }
    names
}

/// The layers self time is reported for: the repository's crates the
/// benchmark calls into, plus the benchmark's own code.
const LAYERS: [&str; 8] = [
    "api", "runtime", "mapper", "monitor", "core", "engine", "state", "bench",
];

/// The end-to-end metrics, in the order `BENCHMARK.json` lists them.
const END_TO_END: [&str; 5] = [
    "setup_s",
    "items_per_s",
    "latency_p50_ms",
    "latency_p99_ms",
    "peak_rss_mb",
];

fn json_metric(name: &str, value: f64, unit: &str) -> String {
    let v = if value.is_finite() { value } else { -1.0 };
    format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}")
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, |p| p.get());
    trace::set_enabled(args.trace);
    let mspin = span("engine.calibrate_host", calibrate_host) / 1e6;
    trace::set_enabled(false);
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    println!(
        "host: nproc={nproc} calibrate_host={mspin:.1} Mspin/s build={profile} \
         workload={} seed={} seconds={} trace={}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    let mut out = match args.workload.as_str() {
        "chain_wire" => chain_wire::run(&args),
        "dag_keyed" => dag_keyed::run(&args),
        "adapt_step" => adapt_step::run(&args),
        "sim_grid" => sim_grid::run(&args),
        other => {
            eprintln!("error: unknown workload {other:?}");
            std::process::exit(2);
        }
    };
    let correct = out.failed == 0 && out.attempted > 0;

    let mut not_exercised: Vec<String> = Vec::new();
    let metrics: Vec<(String, f64, &'static str, &'static str)> = if args.trace {
        for layer in LAYERS {
            out.layer(
                &format!("self_s.{layer}"),
                trace::layer_self_s(layer),
                "s",
                "lower",
            );
        }
        out.layer("trace.spans", trace::span_count() as f64, "count", "lower");
        out.layer("host.nproc", nproc as f64, "count", "higher");
        out.layer("host.mspin_per_s", mspin, "Mspin/s", "higher");
        let have: BTreeMap<&str, &util::Metric> =
            out.layer.iter().map(|m| (m.name.as_str(), m)).collect();
        per_layer_names()
            .into_iter()
            .map(|(name, unit, better)| match have.get(name.as_str()) {
                Some(m) => (name, m.value, m.unit, m.better),
                None => {
                    not_exercised.push(name.clone());
                    (name, 0.0, unit, better)
                }
            })
            .collect()
    } else {
        out.e2e("peak_rss_mb", util::peak_rss_mb(), "MB", "lower");
        END_TO_END
            .iter()
            .map(|&name| {
                let m = out
                    .e2e
                    .iter()
                    .find(|m| m.name == name)
                    .unwrap_or_else(|| panic!("workload did not report {name}"));
                (m.name.clone(), m.value, m.unit, m.better)
            })
            .collect()
    };

    println!("{:<36} {:>16}  {:<8} better", "metric", "value", "unit");
    for (name, value, unit, better) in &metrics {
        let na = if not_exercised.contains(name) {
            "  (not exercised: reads 0)"
        } else {
            ""
        };
        println!("{name:<36} {value:>16.6}  {unit:<8} {better}{na}");
    }
    for (k, v) in &out.info {
        println!("{k:<36} {v:>16}");
    }
    let failed_frac = out.failed as f64 / out.attempted.max(1) as f64;
    println!(
        "{:<36} {failed_frac:>16.6}  {:<8} lower",
        "failed_frac", "frac"
    );

    if args.trace {
        if let Some(path) = &args.trace_out {
            let header = format!(
                "{{\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"nproc\":{nproc},\
                 \"mspin_per_s\":{mspin:.3},\"build\":\"{profile}\"}}",
                args.workload, args.seed, args.seconds
            );
            if let Err(e) = trace::write_jsonl(std::path::Path::new(path), &header) {
                eprintln!("warning: could not write {path}: {e}");
            }
        }
    }

    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit, _)| json_metric(name, *value, unit))
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.attempted,
        out.failed,
        body.join(", ")
    );
    if !correct {
        std::process::exit(1);
    }
}
