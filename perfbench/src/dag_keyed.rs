//! `dag_keyed`: the data plane used differently. A diamond with a keyed
//! stage in front of it: parse → count (keyed, 4 shards, Zipf keys) →
//! {enrich, tag} → join → sink, on two vnodes under `Policy::Static`.
//! Fan-out clones, deposit-join maps, keyed shard routing and spilled
//! (> 3 word) payloads; the mapping keeps every linear boundary on two
//! different vnodes, so no stage can fuse. Closed loop.
//!
//! The facade's `DagBuilder` declares no keyed nodes, so the diamond is
//! declared with `PipelineBuilder`'s `parallel`/`merge` sugar, which the
//! engine runs on the same DAG representation.

use crate::load::{closed_loop, timed_setup, Leg};
use crate::trace::span;
use crate::util::{median, mix, zipf_keys, Outcome};
use crate::{Args, Record};
use adapipe::api::{Backend, Branch, Pipeline, RunConfig};
use adapipe::engine::VNodeSpec;
use adapipe::gridsim::node::NodeId;
use adapipe::mapper::mapping::{Mapping, Placement};
use adapipe::state::fnv1a;
use std::collections::HashMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Shards of the keyed counter.
const SHARDS: usize = 4;
/// Distinct keys and the Zipf exponent of the key stream.
const DISTINCT: usize = 1024;
const ZIPF_S: f64 = 1.1;
/// Length of the seeded key table; item `k` carries key `table[k % len]`.
const TABLE: usize = 1 << 20;
/// Items per `push_batch` call.
const BATCH: usize = 256;

#[derive(Clone, Copy, Debug)]
pub struct Parsed {
    i: u64,
    key: u64,
    hash: u64,
}

#[derive(Clone, Copy, Debug)]
pub struct Counted {
    i: u64,
    key: u64,
    n: u64,
}

fn parse((i, key): (u64, u64)) -> Parsed {
    Parsed {
        i,
        key,
        hash: fnv1a(&key.to_le_bytes()),
    }
}

fn count(seen: &mut u64, p: Parsed) -> Counted {
    *seen += 1;
    Counted {
        i: p.i,
        key: p.key,
        n: *seen,
    }
}

fn enrich(c: Counted) -> Record {
    Record {
        i: c.i,
        key: c.key,
        n: c.n,
        a: mix(c.i),
        b: mix(c.key),
        c: c.i ^ c.n,
    }
}

fn tag(c: Counted) -> Record {
    Record {
        i: c.i,
        key: c.key,
        n: c.n,
        a: 0,
        b: 0,
        c: c.key.wrapping_mul(31) ^ c.n,
    }
}

/// Pairs the two branch records of one item; a record from another
/// item (or a corrupted one) yields `n = 0`, which the check rejects.
fn join(parts: Vec<Record>) -> (u64, u64, u64) {
    let (e, t) = (&parts[0], &parts[1]);
    let paired = parts.len() == 2
        && e.i == t.i
        && e.n == t.n
        && e.a == mix(e.i)
        && t.c == t.key.wrapping_mul(31) ^ t.n;
    (e.i, e.key, if paired { e.n } else { 0 })
}

fn sink(out: (u64, u64, u64)) -> (u64, u64, u64) {
    out
}

fn pipeline() -> Pipeline<(u64, u64), (u64, u64, u64)> {
    Pipeline::<(u64, u64)>::builder()
        .stage("parse", parse)
        .keyed_stage("count", SHARDS, |p: &Parsed| p.hash, || 0u64, count)
        .parallel(vec![
            Branch::new().stage("enrich", enrich),
            Branch::new().stage("tag", tag),
        ])
        .merge("join", join)
        .stage("sink", sink)
        .build()
        .expect("dag_keyed pipeline builds")
}

/// parse v0 · count v0+v1 · enrich v1 · tag v0 · join v1 · sink v0.
fn mapping() -> Mapping {
    let one = |n| Placement::single(NodeId(n));
    Mapping::new(vec![
        one(0),
        Placement::replicated(vec![NodeId(0), NodeId(1)]),
        one(1),
        one(0),
        one(1),
        one(0),
    ])
}

fn vnodes() -> Vec<VNodeSpec> {
    vec![VNodeSpec::free("v0"), VNodeSpec::free("v1")]
}

fn config() -> RunConfig {
    RunConfig {
        initial_mapping: Some(mapping()),
        queue_capacity: Some(256),
        batch_size: 64,
        ..RunConfig::default()
    }
}

/// Per-key reference: each key's running counts must be exactly
/// `1..=pushed_k` over the run.
struct KeyCheck {
    table: Arc<Vec<u64>>,
    seen: HashMap<u64, Vec<u64>>,
}

impl KeyCheck {
    fn new(table: Arc<Vec<u64>>) -> Self {
        KeyCheck {
            table,
            seen: HashMap::new(),
        }
    }

    /// Checks output `k` and records its count; false on a mismatch.
    fn check(&mut self, k: u64, out: &(u64, u64, u64)) -> bool {
        let (i, key, n) = *out;
        if i != k || key != self.table[k as usize % TABLE] || n == 0 {
            return false;
        }
        let bits = self.seen.entry(key).or_default();
        let (word, bit) = ((n / 64) as usize, n % 64);
        if bits.len() <= word {
            bits.resize(word + 1, 0);
        }
        let fresh = bits[word] & (1 << bit) == 0;
        bits[word] |= 1 << bit;
        fresh
    }

    /// Keys whose counts are not exactly `1..=pushed_k` for the first
    /// `pushed` items; every such key counts as one failure.
    fn mismatched_keys(&self, pushed: u64) -> u64 {
        let mut expect: HashMap<u64, u64> = HashMap::new();
        for k in 0..pushed {
            *expect.entry(self.table[k as usize % TABLE]).or_default() += 1;
        }
        let mut bad = 0;
        for (key, &want) in &expect {
            let got = self
                .seen
                .get(key)
                .map_or(0, |b| b.iter().map(|w| w.count_ones() as u64).sum::<u64>());
            let top = self.seen.get(key).map_or(0, |b| {
                (0..b.len() as u64 * 64)
                    .rev()
                    .find(|&n| b[(n / 64) as usize] & (1 << (n % 64)) != 0)
                    .unwrap_or(0)
            });
            if got != want || top != want {
                bad += 1;
            }
        }
        bad += self.seen.keys().filter(|k| !expect.contains_key(k)).count() as u64;
        bad
    }
}

fn leg(table: &Arc<Vec<u64>>, seconds: f64, traced: bool) -> (Leg<(u64, u64, u64)>, Vec<f64>) {
    crate::trace::set_enabled(traced);
    let (session, setups) = span("bench.setup", || {
        timed_setup(
            pipeline,
            || Backend::Threads(vnodes()),
            config,
            || (0, table[0]),
        )
    });
    let events = traced.then(|| session.events());
    let mut keys = KeyCheck::new(Arc::clone(table));
    let mut leg = span("bench.drive", || {
        closed_loop(
            session,
            events,
            crate::WARMUP_S,
            seconds,
            BATCH,
            |k| (k, table[k as usize % TABLE]),
            |k, out| keys.check(k, out),
        )
    });
    leg.wrong += span("bench.check", || keys.mismatched_keys(leg.pushed));
    crate::trace::set_enabled(false);
    (leg, setups)
}

/// The stage closures in a plain loop on one thread, ns per item.
fn serial_ns_per_item(table: &[u64]) -> f64 {
    let n = 500_000u64;
    let reps: Vec<f64> = (0..5)
        .map(|_| {
            let mut state: HashMap<u64, u64> = HashMap::new();
            let t = Instant::now();
            let mut acc = 0u64;
            for k in 0..n {
                let p = parse((k, black_box(table[k as usize % TABLE])));
                let c = count(state.entry(p.hash).or_default(), p);
                let out = sink(join(vec![enrich(c), tag(c)]));
                acc ^= out.2;
            }
            black_box(acc);
            t.elapsed().as_nanos() as f64 / n as f64
        })
        .collect();
    median(&reps)
}

pub fn run(args: &Args) -> Outcome {
    let table = Arc::new(zipf_keys(args.seed, DISTINCT, ZIPF_S, TABLE));
    let mut out = Outcome::new();
    if !args.trace {
        let (leg, setups) = leg(&table, args.seconds, false);
        crate::threaded_e2e(&mut out, &leg, &setups);
        return out;
    }
    let keys: Vec<u64> = table[..1 << 16].to_vec();
    let shape = crate::ThreadedShape {
        spec: pipeline().spec().clone(),
        mapping: mapping(),
        vnodes: vnodes(),
        controller: config().controller,
        keys: &keys,
        keyed: Some((1, SHARDS)),
        items: config().items,
        seconds: args.seconds / 4.0,
    };
    let spill = enrich(Counted {
        i: 7,
        key: table[7],
        n: 1,
    });
    crate::closed_loop_layers(
        &mut out,
        args.seconds,
        |secs, traced| leg(&table, secs, traced).0,
        &shape,
        &spill,
        || serial_ns_per_item(&table),
    );
    out
}
