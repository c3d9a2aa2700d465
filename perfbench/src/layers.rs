//! Per-layer probes: each times calls into one layer's public functions
//! on the workload's own inputs (its mapping, profile, topology, rates,
//! keys and item types), inside a span named after the layer.

use crate::trace::span_calls;
use crate::util::median;
use adapipe::core::payload::Payload;
use adapipe::gridsim::net::Topology;
use adapipe::gridsim::time::SimTime;
use adapipe::mapper::decide::should_remap;
use adapipe::mapper::mapping::Mapping;
use adapipe::mapper::model::{evaluate, PipelineProfile};
use adapipe::mapper::search::plan;
use adapipe::monitor::forecast::{Ensemble, Forecaster};
use adapipe::runtime::controller::{Controller, ControllerConfig};
use adapipe::runtime::routing::RoutingTable;
use adapipe::state::{fnv1a, shard_of};
use std::hint::black_box;
use std::time::Instant;

/// Repetitions of each timed loop; the median is reported.
const REPS: usize = 5;

/// Median over [`REPS`] timed loops of `n` calls of `f`, in ns per call;
/// each loop is one span of `n` calls named `name`.
fn per_call_ns(name: &'static str, n: u64, mut f: impl FnMut(u64)) -> f64 {
    let reps: Vec<f64> = (0..REPS)
        .map(|_| {
            span_calls(name, n, || {
                let t = Instant::now();
                for i in 0..n {
                    f(i);
                }
                t.elapsed().as_nanos() as f64 / n as f64
            })
        })
        .collect();
    median(&reps)
}

/// `RoutingSnapshot::route` over every stage of `mapping`, round robin.
pub fn route_ns(mapping: &Mapping) -> f64 {
    let snap = RoutingTable::new(mapping.clone()).snapshot();
    let ns = mapping.len() as u64;
    per_call_ns("runtime.routing.route", 200_000, |i| {
        black_box(snap.route(black_box((i % ns) as usize)));
    })
}

/// `RoutingSnapshot::route_keyed` for `stage` over the key hashes.
pub fn route_keyed_ns(mapping: &Mapping, shards: Vec<usize>, stage: usize, hashes: &[u64]) -> f64 {
    let snap = RoutingTable::new(mapping.clone())
        .with_stage_shards(shards)
        .snapshot();
    let n = hashes.len() as u64;
    per_call_ns("runtime.routing.route_keyed", 200_000, |i| {
        black_box(snap.route_keyed(stage, black_box(hashes[(i % n) as usize])));
    })
}

/// `Payload::new` plus `downcast` back to `T`.
pub fn payload_ns<T: Clone + Send + 'static>(name: &'static str, sample: &T) -> f64 {
    per_call_ns(name, 200_000, |_| {
        let p = Payload::new(black_box(sample.clone()));
        black_box(p.downcast::<T>().ok());
    })
}

/// `fnv1a` over the key bytes plus `shard_of`, and the busiest shard's
/// load over the mean shard load.
pub fn shard_probe(keys: &[u64], shards: usize) -> (f64, f64) {
    let n = keys.len() as u64;
    let ns = per_call_ns("state.shard_of", 200_000, |i| {
        let h = fnv1a(&black_box(keys[(i % n) as usize]).to_le_bytes());
        black_box(shard_of(h, shards));
    });
    let mut load = vec![0u64; shards];
    for k in keys {
        load[shard_of(fnv1a(&k.to_le_bytes()), shards)] += 1;
    }
    let mean = keys.len() as f64 / shards as f64;
    let max = *load.iter().max().unwrap_or(&0) as f64;
    (ns, if mean > 0.0 { max / mean } else { 0.0 })
}

/// NWS ensemble `observe` + `predict` per availability sample, one
/// ensemble per node series as the controller's metric bank keeps them.
pub fn observe_predict_ns(series: &[Vec<(f64, f64)>]) -> f64 {
    let samples: usize = series.iter().map(Vec::len).sum();
    let reps: Vec<f64> = (0..REPS)
        .map(|_| {
            let mut bank: Vec<Ensemble> =
                series.iter().map(|_| Ensemble::nws_default(16)).collect();
            span_calls("monitor.observe_predict", samples as u64, || {
                let t = Instant::now();
                for (ens, node) in bank.iter_mut().zip(series) {
                    for &(at, v) in node {
                        ens.observe(at, black_box(v));
                        black_box(ens.predict());
                    }
                }
                t.elapsed().as_nanos() as f64 / samples.max(1) as f64
            })
        })
        .collect();
    median(&reps)
}

/// The control plane's inputs for one workload.
pub struct ControlInputs<'a> {
    pub profile: &'a PipelineProfile,
    pub topology: &'a Topology,
    pub mapping: &'a Mapping,
    pub rates: &'a [f64],
    pub controller: &'a ControllerConfig,
}

/// (`evaluate` µs, `plan` ms, `should_remap` ns) on the workload's inputs.
pub fn mapper_probe(c: &ControlInputs<'_>) -> (f64, f64, f64) {
    let eval_us = per_call_ns("mapper.evaluate", 2_000, |_| {
        black_box(evaluate(
            c.profile,
            c.mapping,
            black_box(c.rates),
            c.topology,
        ));
    }) / 1e3;
    let plans: Vec<f64> = (0..REPS)
        .map(|_| {
            span_calls("mapper.plan", 1, || {
                let t = Instant::now();
                black_box(plan(
                    c.profile,
                    black_box(c.rates),
                    c.topology,
                    &c.controller.planner,
                ));
                t.elapsed().as_secs_f64() * 1e3
            })
        })
        .collect();
    let current = evaluate(c.profile, c.mapping, c.rates, c.topology);
    let candidate = plan(c.profile, c.rates, c.topology, &c.controller.planner).prediction;
    let decide_ns = per_call_ns("mapper.should_remap", 200_000, |i| {
        black_box(should_remap(
            black_box(&current),
            black_box(&candidate),
            1_000 + (i & 1023),
            0.1,
            &c.controller.decision,
        ));
    });
    (eval_us, median(&plans), decide_ns)
}

/// Replays `Controller::consider` once per tick with the tick's rates
/// (adopting each re-map it commits), as the adaptation loop would;
/// returns the median µs per call.
pub fn consider_us(
    c: &ControlInputs<'_>,
    ticks: &[(SimTime, Vec<f64>)],
    items: u64,
    state_bytes: &[u64],
) -> f64 {
    let mut ctl = Controller::new(c.rates.len(), c.controller.clone());
    let mut current = c.mapping.clone();
    let mut per_call = Vec::with_capacity(ticks.len());
    for (k, (at, rates)) in ticks.iter().enumerate() {
        let remaining = items - items * k as u64 / ticks.len().max(1) as u64;
        let t = Instant::now();
        let next = span_calls("runtime.controller.consider", 1, || {
            ctl.consider(
                *at,
                c.profile,
                c.topology,
                rates,
                &current,
                remaining,
                state_bytes,
            )
        });
        per_call.push(t.elapsed().as_secs_f64() * 1e6);
        if let Some(m) = next {
            current = m;
        }
    }
    median(&per_call)
}
