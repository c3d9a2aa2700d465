//! In-memory span tracer for the traced run.
//!
//! A span is recorded around each call the benchmark makes into a
//! layer's public functions: name, start, end and the enclosing span.
//! Raw spans are kept (up to [`RAW_CAP`]) and written out as JSON lines
//! when the run ends; per-name totals and self times are aggregated for
//! every span, so the per-layer figures never depend on the cap.
//!
//! Span names are `<layer>.<what>`; a layer's self time is the time its
//! spans cover minus the part their child spans cover.

use std::cell::{Cell, RefCell};
use std::io::Write;
use std::time::Instant;

/// Raw spans kept for the trace file; later spans are only aggregated.
const RAW_CAP: usize = 200_000;

thread_local! {
    static ON: Cell<bool> = const { Cell::new(false) };
    static TR: RefCell<Tracer> = RefCell::new(Tracer::new());
}

/// One finished span. `calls` counts the layer calls the span covers
/// (a timed loop of `n` calls is one span with `calls = n`).
pub struct SpanRec {
    pub id: u32,
    pub parent: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub calls: u64,
}

struct Open {
    id: u32,
    name: &'static str,
    start_ns: u64,
    child_ns: u64,
    calls: u64,
}

/// Totals over every span of one name.
#[derive(Clone, Copy, Default)]
pub struct Agg {
    pub spans: u64,
    pub calls: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

struct Tracer {
    epoch: Instant,
    next_id: u32,
    stack: Vec<Open>,
    raw: Vec<SpanRec>,
    dropped: u64,
    agg: Vec<(&'static str, Agg)>,
}

impl Tracer {
    fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            next_id: 1,
            stack: Vec::new(),
            raw: Vec::new(),
            dropped: 0,
            agg: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn begin(&mut self, name: &'static str, calls: u64) {
        let id = self.next_id;
        self.next_id = self.next_id.wrapping_add(1);
        let start_ns = self.now_ns();
        self.stack.push(Open {
            id,
            name,
            start_ns,
            child_ns: 0,
            calls,
        });
    }

    fn end(&mut self) {
        let end_ns = self.now_ns();
        let open = self.stack.pop().expect("span end without a begin");
        let dur = end_ns.saturating_sub(open.start_ns);
        let parent = match self.stack.last_mut() {
            Some(p) => {
                p.child_ns += dur;
                p.id
            }
            None => 0,
        };
        let agg = match self
            .agg
            .iter_mut()
            .find(|(n, _)| std::ptr::eq(*n, open.name))
        {
            Some((_, a)) => a,
            None => {
                self.agg.push((open.name, Agg::default()));
                &mut self.agg.last_mut().expect("just pushed").1
            }
        };
        agg.spans += 1;
        agg.calls += open.calls;
        agg.total_ns += dur;
        agg.self_ns += dur.saturating_sub(open.child_ns);
        if self.raw.len() < RAW_CAP {
            self.raw.push(SpanRec {
                id: open.id,
                parent,
                name: open.name,
                start_ns: open.start_ns,
                end_ns,
                calls: open.calls,
            });
        } else {
            self.dropped += 1;
        }
    }
}

/// Switches span recording on or off for this thread.
pub fn set_enabled(on: bool) {
    ON.with(|c| c.set(on));
}

/// True while spans are being recorded.
fn enabled() -> bool {
    ON.with(|c| c.get())
}

/// Runs `f` inside a span covering one call.
#[inline]
pub fn span<R>(name: &'static str, f: impl FnOnce() -> R) -> R {
    span_calls(name, 1, f)
}

/// Runs `f` inside a span covering `calls` layer calls.
#[inline]
pub fn span_calls<R>(name: &'static str, calls: u64, f: impl FnOnce() -> R) -> R {
    if !enabled() {
        return f();
    }
    TR.with(|t| t.borrow_mut().begin(name, calls));
    let r = f();
    TR.with(|t| t.borrow_mut().end());
    r
}

/// Totals for span `name` (exact name match).
pub fn agg(name: &str) -> Agg {
    TR.with(|t| {
        t.borrow()
            .agg
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, a)| *a)
            .unwrap_or_default()
    })
}

/// Every finished span's duration in seconds for `name`, from the raw
/// record (spans past the cap are not included).
pub fn durations_s(name: &str) -> Vec<f64> {
    TR.with(|t| {
        t.borrow()
            .raw
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e9)
            .collect()
    })
}

/// Self time in seconds summed over every span whose layer (the name up
/// to the first `.`) is `layer`.
pub fn layer_self_s(layer: &str) -> f64 {
    TR.with(|t| {
        t.borrow()
            .agg
            .iter()
            .filter(|(n, _)| n.split('.').next() == Some(layer))
            .map(|(_, a)| a.self_ns)
            .sum::<u64>() as f64
            / 1e9
    })
}

/// Number of spans finished so far.
pub fn span_count() -> u64 {
    TR.with(|t| t.borrow().agg.iter().map(|(_, a)| a.spans).sum())
}

/// Writes the header line, every raw span and the per-name totals as
/// JSON lines to `path`.
pub fn write_jsonl(path: &std::path::Path, header: &str) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let file = std::fs::File::create(path)?;
    let mut out = std::io::BufWriter::new(file);
    writeln!(out, "{header}")?;
    TR.with(|t| -> std::io::Result<()> {
        let t = t.borrow();
        for s in &t.raw {
            writeln!(
                out,
                "{{\"span\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"calls\":{}}}",
                s.id, s.parent, s.name, s.start_ns, s.end_ns, s.calls
            )?;
        }
        for (name, a) in &t.agg {
            writeln!(
                out,
                "{{\"total\":\"{name}\",\"spans\":{},\"calls\":{},\"total_ns\":{},\"self_ns\":{}}}",
                a.spans, a.calls, a.total_ns, a.self_ns
            )?;
        }
        writeln!(out, "{{\"raw_dropped\":{}}}", t.dropped)?;
        Ok(())
    })?;
    out.flush()
}
