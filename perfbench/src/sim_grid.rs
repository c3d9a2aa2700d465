//! `sim_grid`: the simulator backend on heterogeneous `hetero8` grids
//! whose background-load traces come from the seed, an 8-stage chain
//! and `Policy::Periodic`. Nearly all wall time is control plane
//! (monitor, plan, decide); the run also reports decision quality: the
//! simulated makespan and the oracle's makespan over the adaptive one,
//! from an `Oracle` leg on the same grids.
//!
//! Each pass runs the same `GRIDS` seed-derived grids; the per-grid
//! figures are medians over the grids, `items_per_s` the median over
//! the passes that fit in the run.

use crate::report::{model_err, report_layers};
use crate::trace::span;
use crate::util::{median, mix, quantile, Outcome};
use crate::{Args, Record};
use adapipe::api::{Backend, Pipeline, PipelineBuilder, RunConfig, RunEvent, TryNext};
use adapipe::gridsim::grid::{testbed_hetero8, GridSpec};
use adapipe::gridsim::time::{SimDuration, SimTime};
use adapipe::runtime::policy::Policy;
use adapipe::runtime::report::RunReport;
use adapipe::workloads::scenario::{synthetic_spec, CostShape};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// Grids per pass, items per run, stage count and adaptation period.
const GRIDS: usize = 16;
const ITEMS: u64 = 150;
const STAGES: usize = 8;
const INTERVAL_S: f64 = 5.0;

fn stage_fn(s: usize) -> impl Fn(u64) -> u64 + Clone + Send + 'static {
    move |x: u64| x.wrapping_mul(2 * s as u64 + 3) ^ (s as u64)
}

/// The chain's closed form for input `x`.
fn reference(x: u64) -> u64 {
    (0..STAGES).fold(x, |v, s| stage_fn(s)(v))
}

fn grid_seed(seed: u64, k: usize) -> u64 {
    mix(seed ^ mix(k as u64 + 1))
}

fn pipeline(seed: u64, policy: Policy) -> Pipeline<u64, u64> {
    let spec = synthetic_spec(STAGES, CostShape::Ramp, 1.0, 10_000, 0.2, seed);
    let mut b = PipelineBuilder::<u64, u64>::new().input_bytes(spec.input_bytes);
    for (s, st) in spec.stages.into_iter().enumerate() {
        b = b.stage_with(st, stage_fn(s));
    }
    b.policy(policy).build().expect("sim_grid pipeline builds")
}

fn adaptive() -> Policy {
    Policy::Periodic {
        interval: SimDuration::from_secs_f64(INTERVAL_S),
    }
}

/// One leg on one grid: build, spawn, push every item, close, pull
/// every output. Returns the report, the wall seconds, the wrong or
/// missing outputs, the try_next (calls, hits) and the window events.
struct SimLeg {
    report: RunReport,
    wall_s: f64,
    failed: u64,
    calls: u64,
    hits: u64,
    events: Vec<RunEvent>,
}

fn leg(grid: &GridSpec, seed: u64, policy: Policy, base: u64) -> SimLeg {
    let t = Instant::now();
    let pipeline = span("api.build", || pipeline(seed, policy));
    let cfg = RunConfig {
        items: ITEMS,
        ..RunConfig::default()
    };
    let mut session =
        span("api.spawn", || pipeline.spawn(Backend::Sim(grid), cfg)).expect("sim session spawns");
    let rx = session.events();
    let pushed = span("api.push_batch", || {
        session.push_batch((0..ITEMS).map(|k| base.wrapping_add(k)))
    });
    span("api.close", || session.close());
    let (mut k, mut failed, mut calls, mut hits) = (0u64, 0u64, 0u64, 0u64);
    let mut check = |out: u64| {
        if out != reference(base.wrapping_add(k)) {
            failed += 1;
        }
        k += 1;
    };
    loop {
        calls += 1;
        match span("api.try_next", || session.try_next()) {
            TryNext::Item(out) => {
                hits += 1;
                check(out);
            }
            TryNext::Done => break,
            TryNext::Pending => match span("api.next", || session.next()) {
                Some(out) => check(out),
                None => break,
            },
        }
    }
    let handle = span("api.drain", || session.drain());
    for &out in &handle.outputs {
        check(out);
    }
    let wall_s = t.elapsed().as_secs_f64();
    let report = handle.report;
    let push_failed = pushed.map_or(ITEMS, |n| ITEMS - n);
    failed += push_failed + report.dead_letters + ITEMS.saturating_sub(k);
    if report.completed != ITEMS {
        failed += ITEMS.abs_diff(report.completed).max(1);
    }
    SimLeg {
        report,
        wall_s,
        failed,
        calls,
        hits,
        events: rx.try_iter().collect(),
    }
}

/// Runs jobs `0..jobs` on `workers` threads that each take the next
/// job as they finish one (inline when `workers` is 1, so the traced
/// run keeps its spans on this thread); results come back in job order.
fn on_workers<T: Send>(workers: usize, jobs: usize, f: impl Fn(usize) -> T + Sync) -> Vec<T> {
    if workers <= 1 {
        return (0..jobs).map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let mut done: Vec<(usize, T)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut mine = Vec::new();
                    loop {
                        let job = next.fetch_add(1, Ordering::Relaxed);
                        if job >= jobs {
                            return mine;
                        }
                        mine.push((job, f(job)));
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("a simulation worker panicked"))
            .collect()
    });
    done.sort_by_key(|(job, _)| *job);
    done.into_iter().map(|(_, t)| t).collect()
}

/// Runs every grid once under `policy` on `workers` threads; returns
/// the legs and the pass wall time.
fn pass(
    grids: &[(GridSpec, u64)],
    policy: Policy,
    base: u64,
    workers: usize,
) -> (Vec<SimLeg>, f64) {
    let t = Instant::now();
    let legs = on_workers(workers, grids.len(), |k| {
        leg(&grids[k].0, grids[k].1, policy, base)
    });
    (legs, t.elapsed().as_secs_f64())
}

/// Wall seconds one round of [`host_kernel`] (eight runs per worker,
/// all workers at once) takes on an unloaded processor of the host
/// the benchmark was written on (2 vCPUs, ~70 Mspin/s).
const KERNEL_NOMINAL_S: f64 = 0.012;

/// A fixed CPU kernel that uses nothing from the program — clones of a
/// small float matrix, arithmetic and sorts, the kind of work the
/// planner does — to track how fast the shared host runs right now.
fn host_kernel(seed: usize) -> f64 {
    let base: Vec<Vec<f64>> = (0..8)
        .map(|r| (0..8).map(|c| (r * 8 + c + seed) as f64).collect())
        .collect();
    let mut acc = 0.0;
    for it in 0..3000 {
        let mut m = base.clone();
        for row in m.iter_mut() {
            for x in row.iter_mut() {
                *x = (*x * 1.0001 + it as f64).sqrt();
            }
            row.sort_by(f64::total_cmp);
        }
        acc += m[3][4];
    }
    acc
}

/// Wall seconds of one kernel round on `workers` threads.
fn kernel_round(workers: usize) -> f64 {
    let t = Instant::now();
    std::hint::black_box(on_workers(workers, 8 * workers, host_kernel));
    t.elapsed().as_secs_f64()
}

fn makespan(l: &SimLeg) -> f64 {
    l.report.makespan.as_secs_f64()
}

pub fn run(args: &Args) -> Outcome {
    let base = mix(args.seed) >> 8;
    let grids: Vec<(GridSpec, u64)> = (0..GRIDS)
        .map(|k| {
            let s = grid_seed(args.seed, k);
            (testbed_hetero8(s), s)
        })
        .collect();
    let mut out = Outcome::new();
    let account = |out: &mut Outcome, legs: &[SimLeg]| {
        for l in legs {
            out.attempted += ITEMS;
            out.failed += l.failed;
        }
    };

    // The untraced run keeps both processors busy, so a pass does not
    // measure whichever one the scheduler happened to pick. The traced
    // run stays on this thread, where its spans are recorded.
    let workers = if args.trace {
        1
    } else {
        std::thread::available_parallelism().map_or(1, |p| p.get().min(GRIDS))
    };

    // Set-up: build, spawn and the first push, cycling over the grids.
    let setups: Vec<f64> = on_workers(workers, crate::load::SETUP_REPS, |r| {
        let (grid, seed) = &grids[r % GRIDS];
        let t = Instant::now();
        let p = span("api.build", || pipeline(*seed, adaptive()));
        let mut s = span("api.spawn", || {
            p.spawn(Backend::Sim(grid), RunConfig::default())
        })
        .expect("sim session spawns");
        span("api.push", || s.push(base)).expect("the first push is accepted");
        let secs = t.elapsed().as_secs_f64();
        span("api.abort", || s.abort());
        secs
    });

    let oracle_policy = Policy::Oracle {
        interval: SimDuration::from_secs_f64(INTERVAL_S),
    };
    let (oracle, _) = span("bench.oracle", || {
        pass(&grids, oracle_policy, base, workers)
    });
    account(&mut out, &oracle);

    if !args.trace {
        // Every pass repeats identical work. Each pass's rate is scaled by
        // the host-speed kernel timed just before and just after it, and
        // the median scaled pass is reported.
        let t = Instant::now();
        let (mut raw, mut scaled) = (Vec::new(), Vec::new());
        let mut first: Option<Vec<SimLeg>> = None;
        let mut kernel_before = kernel_round(workers);
        let mut kernels = vec![kernel_before];
        while raw.is_empty() || t.elapsed().as_secs_f64() < args.seconds {
            let (legs, wall) = pass(&grids, adaptive(), base, workers);
            let kernel_after = kernel_round(workers);
            kernels.push(kernel_after);
            let rate = (GRIDS as u64 * ITEMS) as f64 / wall;
            let speed = (kernel_before + kernel_after) / 2.0 / KERNEL_NOMINAL_S;
            raw.push(rate);
            scaled.push(rate * speed);
            kernel_before = kernel_after;
            account(&mut out, &legs);
            first.get_or_insert(legs);
        }
        let items_per_s = median(&scaled);
        out.info("items_per_s_unscaled", format!("{:.3}", median(&raw)));
        out.info("kernel_round_ms", format!("{:.3}", median(&kernels) * 1e3));
        let adapt = first.expect("at least one pass");
        let lat = |q: f64| {
            let per_grid: Vec<f64> = adapt
                .iter()
                .map(|l| {
                    let mut v: Vec<f64> = l
                        .report
                        .latencies
                        .iter()
                        .map(|d| d.as_secs_f64() * 1e3)
                        .collect();
                    v.sort_by(f64::total_cmp);
                    quantile(&v, q)
                })
                .collect();
            median(&per_grid)
        };
        out.e2e("setup_s", median(&setups), "s", "lower");
        out.e2e("items_per_s", items_per_s, "1/s", "higher");
        out.e2e("latency_p50_ms", lat(0.5), "ms", "lower");
        out.e2e("latency_p99_ms", lat(0.99), "ms", "lower");
        let mk: Vec<f64> = adapt.iter().map(makespan).collect();
        let frac: Vec<f64> = adapt
            .iter()
            .zip(&oracle)
            .map(|(a, o)| makespan(o) / makespan(a))
            .collect();
        out.info("passes", raw.len());
        out.info("sim_makespan_s", format!("{:.6}", median(&mk)));
        out.info("oracle_frac", format!("{:.6}", median(&frac)));
        out.info("remaps", adapt[0].report.adaptations.len());
        return out;
    }

    // Traced run: adaptive passes untraced, traced, traced, untraced (so a
    // drift in host speed cancels out of the overhead), then the probes.
    let mut plain: Vec<(Vec<SimLeg>, f64)> = Vec::new();
    let mut traced: Vec<(Vec<SimLeg>, f64)> = Vec::new();
    for on in [false, true, true, false] {
        crate::trace::set_enabled(on);
        let run = pass(&grids, adaptive(), base, 1);
        crate::trace::set_enabled(false);
        account(&mut out, &run.0);
        if on { &mut traced } else { &mut plain }.push(run);
    }
    let mean_wall = |r: &[(Vec<SimLeg>, f64)]| r.iter().map(|x| x.1).sum::<f64>() / r.len() as f64;
    out.layer(
        "trace.overhead_frac",
        mean_wall(&traced) / mean_wall(&plain) - 1.0,
        "frac",
        "lower",
    );
    out.layer(
        "core.sim.wall_items_per_s",
        (GRIDS as u64 * ITEMS) as f64 / mean_wall(&plain),
        "1/s",
        "higher",
    );
    crate::trace::set_enabled(true);
    // The simulator's own event cost: the same grids under Static.
    let statics: Vec<SimLeg> = grids
        .iter()
        .map(|(g, s)| span("core.sim.static", || leg(g, *s, Policy::Static, base)))
        .collect();
    account(&mut out, &statics);
    let adapt = &traced[0].0;
    let lg = &adapt[0];
    let (grid0, _) = &grids[0];

    crate::api_span_layers(&mut out);
    let (calls, hits) = adapt
        .iter()
        .fold((0, 0), |(c, h), l| (c + l.calls, h + l.hits));
    out.layer(
        "api.try_next_hit_frac",
        hits as f64 / calls.max(1) as f64,
        "frac",
        "higher",
    );
    out.layer(
        "api.drain_s",
        median(&crate::trace::durations_s("api.drain")),
        "s",
        "lower",
    );
    out.layer(
        "api.latency_samples",
        lg.report.latencies.len() as f64,
        "count",
        "higher",
    );
    report_layers(&mut out, &lg.report);
    let events: Vec<RunEvent> = adapt.iter().flat_map(|l| l.events.clone()).collect();
    if let Some(err) = model_err(&events) {
        out.layer("runtime.model_err", err, "frac", "lower");
    }
    let mk: Vec<f64> = adapt.iter().map(makespan).collect();
    let frac: Vec<f64> = adapt
        .iter()
        .zip(&oracle)
        .map(|(a, o)| makespan(o) / makespan(a))
        .collect();
    out.layer("core.sim.makespan_s", median(&mk), "s", "lower");
    out.layer("core.sim.oracle_frac", median(&frac), "frac", "higher");
    let static_s = median(&statics.iter().map(|l| l.wall_s).collect::<Vec<_>>());
    out.layer("core.sim.static_s", static_s, "s", "lower");

    // Layer probes on grid 0's inputs.
    let spec = pipeline(grids[0].1, adaptive()).spec().clone();
    let profile = spec.profile();
    let topology = grid0.topology().clone();
    let rates = grid0.rates_at(SimTime::ZERO);
    let mapping = lg.report.final_mapping.clone();
    let controller = RunConfig::default().controller;
    let inputs = crate::layers::ControlInputs {
        profile: &profile,
        topology: &topology,
        mapping: &mapping,
        rates: &rates,
        controller: &controller,
    };
    let horizon = makespan(lg);
    let consider_us = crate::control_probes(&mut out, &inputs, horizon, INTERVAL_S, ITEMS, |t| {
        grid0.rates_at(SimTime::from_secs_f64(t))
    });
    // The budget over every grid: its untraced adaptive legs against its
    // static leg plus its planning cycles at the replayed consider cost.
    let gaps: Vec<f64> = (0..GRIDS)
        .map(|k| {
            let wall = median(&plain.iter().map(|p| p.0[k].wall_s).collect::<Vec<_>>());
            let cycles = plain[0].0[k].report.planning_cycles as f64;
            (wall - (statics[k].wall_s + cycles * consider_us / 1e6)).abs() / wall
        })
        .collect();
    out.layer("budget.sim_gap_frac", median(&gaps), "frac", "lower");

    // No stage is keyed: the keyed-route and shard probes take the item
    // values as keys on a 4-shard first stage.
    let keys: Vec<u64> = (0..4096).map(|k| base.wrapping_add(k)).collect();
    crate::data_plane_probes(&mut out, &mapping, (0, 4), &keys, &Record::sample(base));
    let series: Vec<Vec<(f64, f64)>> = grid0
        .node_ids()
        .map(|id| {
            let node = grid0.node(id);
            (0..horizon.ceil() as usize)
                .map(|t| {
                    let at = SimTime::from_secs_f64(t as f64);
                    (t as f64, node.load.availability(at))
                })
                .collect()
        })
        .collect();
    out.layer(
        "monitor.observe_predict_ns",
        crate::layers::observe_predict_ns(&series),
        "ns",
        "lower",
    );
    let serial = span("bench.serial", || {
        let n = 200_000u64;
        let reps: Vec<f64> = (0..5)
            .map(|_| {
                let t = Instant::now();
                let mut acc = 0u64;
                for k in 0..n {
                    acc ^= reference(std::hint::black_box(base.wrapping_add(k)));
                }
                std::hint::black_box(acc);
                t.elapsed().as_nanos() as f64 / n as f64
            })
            .collect();
        median(&reps)
    });
    out.layer("baseline.serial_ns_per_item", serial, "ns", "lower");
    out
}
