//! `adapt_step`: the paper's claim on real threads. A three-stage
//! spin-work chain (ingest → heavy → emit) whose heavy stage is keyed,
//! under `Policy::Periodic`, on three vnodes mapped `[v0, v1, v0]`.
//! Items arrive open-loop on a fixed schedule at a rate the healthy pool
//! sustains; at a fixed time the vnode hosting the heavy stage steps
//! down to 5 % availability, which the collapsed host cannot sustain.
//! Recovery needs monitor → plan → decide → commit, and the keyed state
//! migrates with the re-map. At most two vnodes are ever busy.

use crate::load::timed_setup;
use crate::report::{model_err, report_layers};
use crate::trace::{span, span_count};
use crate::util::{median, mix, quantile, zipf_keys, Outcome};
use crate::Args;
use adapipe::api::{Backend, Pipeline, RunConfig, RunEvent, TryNext};
use adapipe::core::spec::StageSpec;
use adapipe::engine::{spin_for, VNodeSpec};
use adapipe::gridsim::load::LoadModel;
use adapipe::gridsim::node::NodeId;
use adapipe::gridsim::time::{SimDuration, SimTime};
use adapipe::mapper::mapping::Mapping;
use adapipe::runtime::policy::Policy;
use adapipe::state::fnv1a;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Spin per item of the light stages and of the heavy stage, in ms:
/// long enough that the few milliseconds a busy shared host takes to
/// wake a thread stay small beside an item's service time.
const LIGHT_MS: f64 = 0.8;
const HEAVY_MS: f64 = 8.0;
/// Offered rate: half the heavy stage's healthy capacity, ten times
/// what it sustains at 5 % availability.
const RATE: f64 = 62.5;
/// The load step: when (as a share of the run) and to what availability.
const STEP_AT: f64 = 0.3;
const STEP_TO: f64 = 0.05;
/// Adaptation period and the shards and keys of the heavy stage.
const INTERVAL_MS: u64 = 100;
const SHARDS: usize = 8;
const DISTINCT: usize = 64;
/// Recovery: windowed completions at this share of the offered rate,
/// over this window, and backlog back at its pre-step maximum + slack.
const RECOVER_RATE: f64 = 0.9;
const RECOVER_WINDOW: f64 = 0.5;
const BACKLOG_SLACK: f64 = 2.0;

#[derive(Clone, Copy, Debug)]
pub struct Job {
    i: u64,
    key: u64,
}

#[derive(Clone, Copy, Debug)]
pub struct Counted {
    i: u64,
    key: u64,
    n: u64,
}

fn pipeline(keys: Arc<Vec<u64>>) -> Pipeline<u64, (u64, u64, u64)> {
    let light = Duration::from_secs_f64(LIGHT_MS / 1e3);
    let heavy = Duration::from_secs_f64(HEAVY_MS / 1e3);
    Pipeline::<u64>::builder()
        .stage_with(
            StageSpec::balanced("ingest", LIGHT_MS / 1e3, 64),
            move |i: u64| {
                spin_for(light);
                Job {
                    i,
                    key: keys[i as usize % keys.len()],
                }
            },
        )
        .keyed_stage_with(
            StageSpec::balanced("heavy", HEAVY_MS / 1e3, 64).with_keyed_state(SHARDS, 4096),
            |j: &Job| fnv1a(&j.key.to_le_bytes()),
            || 0u64,
            move |n: &mut u64, j: Job| {
                spin_for(heavy);
                *n += 1;
                Counted {
                    i: j.i,
                    key: j.key,
                    n: *n,
                }
            },
        )
        .stage_with(
            StageSpec::balanced("emit", LIGHT_MS / 1e3, 64),
            move |c: Counted| {
                spin_for(light);
                (c.i, mix(c.i) ^ c.key, c.n)
            },
        )
        .policy(Policy::Periodic {
            interval: SimDuration::from_millis(INTERVAL_MS),
        })
        .build()
        .expect("adapt_step pipeline builds")
}

fn vnodes(step_at: f64) -> Vec<VNodeSpec> {
    vec![
        VNodeSpec::free("v0"),
        VNodeSpec::free("v1").with_load(LoadModel::step(
            1.0,
            STEP_TO,
            SimTime::from_secs_f64(step_at),
        )),
        VNodeSpec::free("v2"),
    ]
}

fn mapping() -> Mapping {
    Mapping::from_assignment(&[NodeId(0), NodeId(1), NodeId(0)])
}

fn config(seed: u64, items: u64) -> RunConfig {
    let mut cfg = RunConfig {
        items,
        initial_mapping: Some(mapping()),
        observation_noise: 0.05,
        noise_seed: seed,
        ..RunConfig::default()
    };
    cfg.controller.planner.max_width = 1;
    cfg
}

/// Per-item timeline of one open-loop run, in seconds since the
/// schedule started.
struct Timeline {
    due: Vec<f64>,
    pushed: Vec<f64>,
    received: Vec<f64>,
}

/// Wall time from `step` until windowed completions are back at the
/// offered rate and the backlog is back at its pre-step level, or
/// `None` if that never lasts to the end of the schedule.
fn recover_s(tl: &Timeline, step: f64, end: f64) -> Option<f64> {
    let count_le = |v: &[f64], t: f64| v.partition_point(|&x| x <= t) as f64;
    let mut pushed = tl.pushed.clone();
    pushed.sort_by(f64::total_cmp);
    let received = &tl.received; // in push order, hence ascending
    let backlog = |t: f64| count_le(&pushed, t) - count_le(received, t);
    let grid = |from: f64, to: f64| {
        let n = ((to - from) / 0.01).floor() as usize;
        (0..=n).map(move |k| from + k as f64 * 0.01)
    };
    let pre_max = grid((step - 1.0).max(0.0), step)
        .map(backlog)
        .fold(0.0, f64::max);
    let mut last_bad = None;
    for t in grid(step, end) {
        let rate =
            (count_le(received, t) - count_le(received, t - RECOVER_WINDOW)) / RECOVER_WINDOW;
        if backlog(t) > pre_max + BACKLOG_SLACK || rate < RECOVER_RATE * RATE {
            last_bad = Some(t);
        }
    }
    match last_bad {
        None => Some(0.0),
        Some(t) if t + 0.5 < end => Some(t + 0.01 - step),
        Some(_) => None,
    }
}

struct Run {
    setups: Vec<f64>,
    timeline: Timeline,
    wrong: u64,
    push_errors: u64,
    dead_letters: u64,
    calls: u64,
    hits: u64,
    drain_s: f64,
    events: Vec<RunEvent>,
    report: adapipe::runtime::report::RunReport,
    wall_s: f64,
}

fn run_once(args: &Args, keys: &Arc<Vec<u64>>) -> Run {
    let n = (RATE * args.seconds).round() as u64;
    let step = STEP_AT * args.seconds;
    let (mut session, setups) = span("bench.setup", || {
        timed_setup(
            || pipeline(Arc::clone(keys)),
            || Backend::Threads(vnodes(step)),
            || config(args.seed, n),
            || 0u64,
        )
    });
    let rx = args.trace.then(|| session.events());
    let start = Instant::now();
    let due = |j: u64| j as f64 / RATE;
    let mut tl = Timeline {
        due: (0..n).map(due).collect(),
        pushed: vec![0.0; n as usize],
        received: Vec::with_capacity(n as usize),
    };
    let (mut next, mut wrong, mut push_errors, mut calls, mut hits) = (1u64, 0, 0, 0, 0);
    let mut per_key: HashMap<u64, Vec<u64>> = HashMap::new();
    let mut check = |k: u64, out: &(u64, u64, u64)| {
        let key = keys[k as usize % keys.len()];
        per_key.entry(key).or_default().push(out.2);
        out.0 == k && out.1 == mix(k) ^ key
    };
    let mut buf = Vec::new();
    let horizon = args.seconds + 10.0;
    span("bench.drive", || loop {
        let now = start.elapsed().as_secs_f64();
        while next < n && due(next) <= now {
            tl.pushed[next as usize] = now;
            buf.push(next);
            next += 1;
        }
        if !buf.is_empty() && span("api.push_batch", || session.push_batch(buf.drain(..))).is_err()
        {
            push_errors += 1;
            break;
        }
        loop {
            calls += 1;
            match span("api.try_next", || session.try_next()) {
                TryNext::Item(out) => {
                    hits += 1;
                    let k = tl.received.len() as u64;
                    if !check(k, &out) {
                        wrong += 1;
                    }
                    tl.received.push(start.elapsed().as_secs_f64());
                }
                _ => break,
            }
        }
        if tl.received.len() as u64 >= n || now > horizon {
            break;
        }
        let wake = if next < n { due(next) } else { now + 0.0005 };
        let nap = (wake - start.elapsed().as_secs_f64()).clamp(0.0, 0.0005);
        std::thread::sleep(Duration::from_secs_f64(nap));
    });
    let wall_s = start.elapsed().as_secs_f64();
    let t = Instant::now();
    span("api.close", || session.close());
    let handle = span("api.drain", || session.drain());
    let drain_s = t.elapsed().as_secs_f64();
    for out in &handle.outputs {
        let k = tl.received.len() as u64;
        if !check(k, out) {
            wrong += 1;
        }
        tl.received.push(start.elapsed().as_secs_f64());
    }
    tl.pushed.truncate(next as usize);
    wrong += n.saturating_sub(tl.received.len() as u64);
    // Each key's running counts must be exactly 1..=count, state
    // migration or not.
    for counts in per_key.values_mut() {
        counts.sort_unstable();
        if counts.iter().enumerate().any(|(i, &c)| c != i as u64 + 1) {
            wrong += 1;
        }
    }
    let events = rx.map(|rx| rx.try_iter().collect()).unwrap_or_default();
    Run {
        setups,
        timeline: tl,
        wrong,
        push_errors,
        dead_letters: handle.report.dead_letters,
        calls,
        hits,
        drain_s,
        events,
        report: handle.report,
        wall_s,
    }
}

/// Nanoseconds one empty span costs the generator thread.
fn span_cost_ns() -> f64 {
    let n = 100_000;
    let t = Instant::now();
    for _ in 0..n {
        span("bench.calibrate_span", || ());
    }
    t.elapsed().as_nanos() as f64 / n as f64
}

pub fn run(args: &Args) -> Outcome {
    let keys = Arc::new(zipf_keys(args.seed, DISTINCT, 1.0, 4096));
    crate::trace::set_enabled(args.trace);
    let r = run_once(args, &keys);
    let spans = span_count();
    crate::trace::set_enabled(false);

    let tl = &r.timeline;
    let mut out = Outcome::new();
    out.attempted = tl.due.len() as u64;
    out.failed = r.wrong + r.push_errors + r.dead_letters;
    let mut lat: Vec<f64> = tl
        .received
        .iter()
        .zip(&tl.due)
        .map(|(rcv, due)| (rcv - due) * 1e3)
        .collect();
    lat.sort_by(f64::total_cmp);
    let last = tl.received.last().copied().unwrap_or(0.0);
    let step = STEP_AT * args.seconds;
    let recover = recover_s(tl, step, args.seconds);
    out.info("latency_samples", lat.len());
    out.info("remaps", r.report.adaptations.len());
    out.info(
        "recover_s",
        recover.map_or("not recovered".to_string(), |s| format!("{s:.3}")),
    );
    if !args.trace {
        out.e2e("setup_s", median(&r.setups), "s", "lower");
        out.e2e(
            "items_per_s",
            tl.received.len() as f64 / last.max(1e-9),
            "1/s",
            "higher",
        );
        out.e2e("latency_p50_ms", quantile(&lat, 0.5), "ms", "lower");
        out.e2e("latency_p99_ms", quantile(&lat, 0.99), "ms", "lower");
        return out;
    }

    crate::trace::set_enabled(true);
    let mut lag: Vec<f64> = tl
        .pushed
        .iter()
        .zip(&tl.due)
        .map(|(p, d)| (p - d) * 1e3)
        .collect();
    lag.sort_by(f64::total_cmp);
    out.layer("gen.lag_p99_ms", quantile(&lag, 0.99), "ms", "lower");
    // A run that never recovers reports the whole post-step span.
    out.layer(
        "runtime.controller.recover_s",
        recover.unwrap_or(args.seconds - step),
        "s",
        "lower",
    );
    out.layer(
        "trace.overhead_frac",
        spans as f64 * span_cost_ns() / 1e9 / r.wall_s,
        "frac",
        "lower",
    );
    crate::api_span_layers(&mut out);
    out.layer(
        "api.try_next_hit_frac",
        r.hits as f64 / r.calls.max(1) as f64,
        "frac",
        "higher",
    );
    out.layer("api.drain_s", r.drain_s, "s", "lower");
    let (stalls, wait) = r.events.iter().fold((0u64, 0.0), |(n, w), e| match e {
        RunEvent::BackpressureStall { waited, .. } => (n + 1, w + waited.as_secs_f64()),
        _ => (n, w),
    });
    out.layer("api.backpressure_stalls", stalls as f64, "count", "lower");
    out.layer("api.backpressure_wait_s", wait, "s", "lower");
    out.layer("api.latency_samples", lat.len() as f64, "count", "higher");
    if let Some(err) = model_err(&r.events) {
        out.layer("runtime.model_err", err, "frac", "lower");
    }
    report_layers(&mut out, &r.report);

    let shape = crate::ThreadedShape {
        spec: pipeline(Arc::clone(&keys)).spec().clone(),
        mapping: mapping(),
        vnodes: vnodes(step),
        controller: config(args.seed, tl.due.len() as u64).controller,
        keys: &keys,
        keyed: Some((1, SHARDS)),
        items: tl.due.len() as u64,
        seconds: args.seconds,
    };
    crate::threaded_probes(&mut out, &shape, &crate::Record::sample(args.seed));
    out.layer(
        "baseline.serial_ns_per_item",
        serial_ns_per_item(&keys),
        "ns",
        "lower",
    );
    out
}

/// The stage closures in a plain loop on one thread, ns per item.
fn serial_ns_per_item(keys: &Arc<Vec<u64>>) -> f64 {
    span("bench.serial", || {
        let items = 50u64;
        let light = Duration::from_secs_f64(LIGHT_MS / 1e3);
        let heavy = Duration::from_secs_f64(HEAVY_MS / 1e3);
        let mut state: HashMap<u64, u64> = HashMap::new();
        let t = Instant::now();
        for i in 0..items {
            spin_for(light);
            let key = keys[i as usize % keys.len()];
            spin_for(heavy);
            let n = state.entry(key).or_default();
            *n += 1;
            spin_for(light);
            std::hint::black_box((i, mix(i) ^ key, *n));
        }
        t.elapsed().as_nanos() as f64 / items as f64
    })
}
