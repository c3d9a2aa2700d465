//! `chain_wire`: the data plane's own ceiling. Four trivial `u64`
//! stages on two vnodes under `Policy::Static`, mapped `[v0, v0, v1,
//! v1]`: the two same-host boundaries fuse into direct calls and the
//! middle one is an envelope hop. Closed loop.

use crate::load::{closed_loop, timed_setup, Leg};
use crate::trace::span;
use crate::util::{median, mix, Outcome};
use crate::{Args, Record};
use adapipe::api::{Backend, Pipeline, RunConfig};
use adapipe::engine::VNodeSpec;
use adapipe::gridsim::node::NodeId;
use adapipe::mapper::mapping::Mapping;
use std::hint::black_box;
use std::time::Instant;

fn parse(x: u64) -> u64 {
    x.wrapping_add(0x9E37_79B9)
}
fn scale(x: u64) -> u64 {
    x.wrapping_mul(0x2545_F491_4F6C_DD1D)
}
fn fold(x: u64) -> u64 {
    x ^ (x >> 29)
}
fn emit(x: u64) -> u64 {
    x.rotate_left(17)
}

/// The chain's closed form: the reference every output is checked
/// against.
fn reference(x: u64) -> u64 {
    emit(fold(scale(parse(x))))
}

/// Items per `push_batch` call.
const BATCH: usize = 256;

fn pipeline() -> Pipeline<u64, u64> {
    Pipeline::<u64>::builder()
        .stage("parse", parse)
        .stage("scale", scale)
        .stage("fold", fold)
        .stage("emit", emit)
        .build()
        .expect("chain_wire pipeline builds")
}

fn mapping() -> Mapping {
    Mapping::from_assignment(&[NodeId(0), NodeId(0), NodeId(1), NodeId(1)])
}

fn vnodes() -> Vec<VNodeSpec> {
    vec![VNodeSpec::free("v0"), VNodeSpec::free("v1")]
}

/// The queue bound is deep (20480 items in flight) so a stall of a few
/// milliseconds on a shared host moves the latency tail by a fraction,
/// not a multiple, of its usual value.
fn config() -> RunConfig {
    RunConfig {
        initial_mapping: Some(mapping()),
        queue_capacity: Some(4096),
        batch_size: 64,
        ..RunConfig::default()
    }
}

/// One closed-loop leg: timed set-ups, then `seconds` of load.
fn leg(base: u64, seconds: f64, traced: bool) -> (Leg<u64>, Vec<f64>) {
    crate::trace::set_enabled(traced);
    let (session, setups) = span("bench.setup", || {
        timed_setup(pipeline, || Backend::Threads(vnodes()), config, || base)
    });
    let events = traced.then(|| session.events());
    let leg = span("bench.drive", || {
        closed_loop(
            session,
            events,
            crate::WARMUP_S,
            seconds,
            BATCH,
            |k| base.wrapping_add(k),
            |k, out| *out == reference(base.wrapping_add(k)),
        )
    });
    crate::trace::set_enabled(false);
    (leg, setups)
}

/// The stage closures in a plain loop on one thread, ns per item.
fn serial_ns_per_item(base: u64) -> f64 {
    let n = 1_000_000u64;
    let reps: Vec<f64> = (0..5)
        .map(|_| {
            let t = Instant::now();
            let mut acc = 0u64;
            for k in 0..n {
                acc ^= emit(fold(scale(parse(black_box(base.wrapping_add(k))))));
            }
            black_box(acc);
            t.elapsed().as_nanos() as f64 / n as f64
        })
        .collect();
    median(&reps)
}

pub fn run(args: &Args) -> Outcome {
    let base = mix(args.seed) >> 8;
    let mut out = Outcome::new();
    if !args.trace {
        let (leg, setups) = leg(base, args.seconds, false);
        crate::threaded_e2e(&mut out, &leg, &setups);
        return out;
    }
    let keys: Vec<u64> = (0..4096).map(|k| base.wrapping_add(k)).collect();
    let shape = crate::ThreadedShape {
        spec: pipeline().spec().clone(),
        mapping: mapping(),
        vnodes: vnodes(),
        controller: config().controller,
        keys: &keys,
        keyed: None,
        items: config().items,
        seconds: args.seconds / 4.0,
    };
    crate::closed_loop_layers(
        &mut out,
        args.seconds,
        |secs, traced| leg(base, secs, traced).0,
        &shape,
        &Record::sample(base),
        || serial_ns_per_item(base),
    );
    out
}
