//! The load generator: timed set-up and the closed loop shared by the
//! threaded throughput workloads. One generator thread is the only
//! source of load; every facade call it makes sits in an `api.*` span.

use crate::trace::span;
use crate::util::{median, Sampler};
use adapipe::api::{Backend, Pipeline, RunConfig, RunEvent, RunHandle, RunSession, TryNext};
use std::collections::VecDeque;
use std::sync::mpsc::Receiver;
use std::time::{Duration, Instant};

/// Set-ups timed per run; the median is reported as `setup_s`.
pub const SETUP_REPS: usize = 31;

/// Latency samples kept per run (strided beyond this).
pub const LATENCY_CAP: usize = 1 << 18;

/// Builds, spawns and pushes the first item `SETUP_REPS` times; every
/// session but the last is aborted. Returns the live session and the
/// set-up times in seconds.
pub fn timed_setup<'g, I: Send + 'static, O: Send + 'static>(
    build: impl Fn() -> Pipeline<I, O>,
    backend: impl Fn() -> Backend<'g>,
    cfg: impl Fn() -> RunConfig,
    first: impl Fn() -> I,
) -> (RunSession<'g, I, O>, Vec<f64>) {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut live = None;
    for rep in 0..SETUP_REPS {
        let (item, backend, cfg) = (first(), backend(), cfg());
        let t = Instant::now();
        let pipeline = span("api.build", &build);
        let mut session = span("api.spawn", || pipeline.spawn(backend, cfg))
            .expect("the benchmark pipeline spawns");
        span("api.push", || session.push(item)).expect("the first push is accepted");
        times.push(t.elapsed().as_secs_f64());
        if rep + 1 == SETUP_REPS {
            live = Some(session);
        } else {
            span("api.abort", || session.abort());
        }
    }
    (live.expect("at least one set-up"), times)
}

/// What one closed-loop leg observed.
pub struct Leg<O> {
    /// Completions per second in each of the timed windows.
    pub window_rates: Vec<f64>,
    /// Latency samples of each timed window, in ms.
    pub latency_ms: Vec<Sampler>,
    /// Items the generator pushed (the set-up push included).
    pub pushed: u64,
    /// Outputs received and checked (drained ones included).
    pub received: u64,
    pub wrong: u64,
    pub push_errors: u64,
    pub try_next_calls: u64,
    pub try_next_hits: u64,
    pub stalls: u64,
    pub stall_wait_s: f64,
    pub drain_s: f64,
    /// Items completed in the timed windows.
    pub timed_items: u64,
    pub handle: RunHandle<O>,
}

/// Timed windows `items_per_s` is the median of.
const WINDOWS: usize = 20;

/// Drives `session` closed-loop for `warmup + seconds`: push a batch of
/// `batch` items (blocking under backpressure), then poll `try_next`
/// until it is pending, and repeat. Item `k`'s input is `make(k)`; the
/// set-up already pushed item 0. Every output is checked in push order
/// with `check(k, &out)`. Latency runs from the start of the push call
/// to the end of the poll burst that received the output.
pub fn closed_loop<I: Send + 'static, O: Send + 'static>(
    mut session: RunSession<'_, I, O>,
    events: Option<Receiver<RunEvent>>,
    warmup: f64,
    seconds: f64,
    batch: usize,
    make: impl Fn(u64) -> I,
    mut check: impl FnMut(u64, &O) -> bool,
) -> Leg<O> {
    let start = Instant::now();
    let timed_from = start + Duration::from_secs_f64(warmup);
    let end = timed_from + Duration::from_secs_f64(seconds);
    let window = seconds / WINDOWS as f64;
    let mut window_items = [0u64; WINDOWS];
    let mut latency_ms: Vec<Sampler> = (0..WINDOWS)
        .map(|_| Sampler::new(LATENCY_CAP / WINDOWS))
        .collect();
    // (first index past the batch, push-call start) per unacknowledged batch.
    let mut stamps: VecDeque<(u64, Instant)> = VecDeque::from([(1, start)]);
    let (mut next, mut k) = (1u64, 0u64);
    let (mut wrong, mut push_errors, mut calls, mut hits) = (0u64, 0u64, 0u64, 0u64);
    let (mut stalls, mut stall_wait_s) = (0u64, 0.0f64);
    let mut buf = Vec::with_capacity(batch);
    loop {
        let now = Instant::now();
        if now >= end {
            break;
        }
        buf.clear();
        buf.extend((next..next + batch as u64).map(&make));
        stamps.push_back((next + batch as u64, now));
        match span("api.push_batch", || session.push_batch(buf.drain(..))) {
            Ok(n) => next += n,
            Err(_) => {
                push_errors += 1;
                break;
            }
        }
        let first = k;
        loop {
            calls += 1;
            match span("api.try_next", || session.try_next()) {
                TryNext::Item(out) => {
                    hits += 1;
                    if !check(k, &out) {
                        wrong += 1;
                    }
                    k += 1;
                }
                _ => break,
            }
        }
        let got = Instant::now();
        let timed = got >= timed_from && got < end;
        let w = ((got.saturating_duration_since(timed_from)).as_secs_f64() / window) as usize;
        let w = w.min(WINDOWS - 1);
        if timed {
            window_items[w] += k - first;
        }
        for j in first..k {
            while stamps.front().is_some_and(|&(past, _)| past <= j) {
                stamps.pop_front();
            }
            let pushed_at = stamps.front().map_or(got, |&(_, at)| at);
            if timed && pushed_at >= timed_from {
                latency_ms[w].add((got - pushed_at).as_secs_f64() * 1e3);
            }
        }
        if let Some(rx) = &events {
            while let Ok(ev) = rx.try_recv() {
                if let RunEvent::BackpressureStall { waited, .. } = ev {
                    stalls += 1;
                    stall_wait_s += waited.as_secs_f64();
                }
            }
        }
    }
    let timed_items = window_items.iter().sum();
    let t = Instant::now();
    span("api.close", || session.close());
    let handle = span("api.drain", || session.drain());
    let drain_s = t.elapsed().as_secs_f64();
    for out in &handle.outputs {
        if !check(k, out) {
            wrong += 1;
        }
        k += 1;
    }
    if let Some(rx) = &events {
        while let Ok(ev) = rx.try_recv() {
            if let RunEvent::BackpressureStall { waited, .. } = ev {
                stalls += 1;
                stall_wait_s += waited.as_secs_f64();
            }
        }
    }
    Leg {
        window_rates: window_items.iter().map(|&n| n as f64 / window).collect(),
        latency_ms,
        pushed: next,
        received: k,
        wrong,
        push_errors,
        try_next_calls: calls,
        try_next_hits: hits,
        stalls,
        stall_wait_s,
        drain_s,
        timed_items,
        handle,
    }
}

impl<O> Leg<O> {
    pub fn items_per_s(&self) -> f64 {
        median(&self.window_rates)
    }

    /// Medians over the timed windows of each window's (p50, p99).
    pub fn latency_p50_p99(&self) -> (f64, f64) {
        let per: Vec<(f64, f64)> = self
            .latency_ms
            .iter()
            .filter(|s| s.seen() > 0)
            .map(Sampler::p50_p99)
            .collect();
        let p50: Vec<f64> = per.iter().map(|p| p.0).collect();
        let p99: Vec<f64> = per.iter().map(|p| p.1).collect();
        (median(&p50), median(&p99))
    }

    /// Latency samples taken over the timed windows.
    pub fn latency_samples(&self) -> u64 {
        self.latency_ms.iter().map(Sampler::seen).sum()
    }

    /// Push errors + dead letters + missing or wrong outputs.
    pub fn failed(&self) -> u64 {
        self.push_errors
            + self.handle.report.dead_letters
            + self.wrong
            + self.pushed.saturating_sub(self.received)
    }
}
