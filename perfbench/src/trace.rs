//! Spans around the benchmark's calls into each layer.
//!
//! A span has a name, a start, an end, the span that caused it and the root
//! span of its operation. Spans stay in memory on the one client thread and
//! are written out as JSON when the run ends, together with each name's self
//! time: its spans' durations minus the parts their child spans cover. With
//! tracing off, [`span`] is a thread-local flag test around the call.
//!
//! A traced loop records the spans of a fixed pseudo-random half of its
//! operations ([`Split`]) and reports the median operation time of that half
//! over the other's as `obs.tracing_overhead`.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    root: usize,
}

struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    paused: bool,
}

impl Tracer {
    fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            paused: false,
        }
    }

    fn begin(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        let parent = self.open.last().copied();
        let root = parent.map_or(id, |p| self.spans[p].root);
        let start_ns = self.epoch.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            root,
        });
        self.open.push(id);
        id
    }

    fn end(&mut self, id: usize) {
        self.spans[id].end_ns = self.epoch.elapsed().as_nanos() as u64;
        let popped = self.open.pop();
        debug_assert_eq!(popped, Some(id), "spans close in LIFO order");
    }
}

thread_local! {
    static TRACER: RefCell<Option<Tracer>> = const { RefCell::new(None) };
}

/// Turns span recording on or off for this thread.
pub fn set_enabled(on: bool) {
    TRACER.with(|t| *t.borrow_mut() = on.then(Tracer::new));
}

/// Pauses or resumes span recording; no effect with tracing off.
fn set_paused(paused: bool) {
    TRACER.with(|t| {
        if let Some(tr) = t.borrow_mut().as_mut() {
            tr.paused = paused;
        }
    });
}

/// Runs `f` inside a span called `name` (a plain call when tracing is off
/// or paused).
pub fn span<T>(name: &'static str, f: impl FnOnce() -> T) -> T {
    let id = TRACER.with(|t| {
        t.borrow_mut()
            .as_mut()
            .filter(|tr| !tr.paused)
            .map(|tr| tr.begin(name))
    });
    let out = f();
    if let Some(id) = id {
        TRACER.with(|t| {
            if let Some(tr) = t.borrow_mut().as_mut() {
                tr.end(id);
            }
        });
    }
    out
}

/// Spans recorded so far.
pub fn span_count() -> usize {
    TRACER.with(|t| t.borrow().as_ref().map_or(0, |tr| tr.spans.len()))
}

/// A traced loop's operations split into a recorded and an unrecorded half,
/// with each half's operation times.
#[derive(Default)]
pub struct Split {
    next: u64,
    recorded_ms: Vec<f64>,
    unrecorded_ms: Vec<f64>,
}

impl Split {
    /// Called before each operation: pauses span recording unless this
    /// operation falls in the recorded half (a splitmix64 bit of its index,
    /// so that the halves follow no period of the workload). Returns whether
    /// it records.
    pub fn start(&mut self) -> bool {
        let mut z = self.next.wrapping_add(0x9E37_79B9_7F4A_7C15);
        self.next += 1;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        let on = TRACER.with(|t| t.borrow().is_some());
        let recorded = on && (z ^ (z >> 31)) & 1 == 0;
        set_paused(!recorded);
        recorded
    }

    /// Called after each operation with its time: resumes recording, so
    /// that the split covers only the loop's operations.
    pub fn finish(&mut self, recorded: bool, ms: f64) {
        set_paused(false);
        if recorded {
            self.recorded_ms.push(ms);
        } else {
            self.unrecorded_ms.push(ms);
        }
    }

    /// Ends the loop: returns the recorded half's median operation time
    /// over the unrecorded half's (1 with tracing off, where nothing
    /// records).
    pub fn end(&self) -> f64 {
        if self.recorded_ms.is_empty() || self.unrecorded_ms.is_empty() {
            return 1.0;
        }
        crate::common::median(&self.recorded_ms) / crate::common::median(&self.unrecorded_ms)
    }
}

/// `(name, spans, total ms, self ms)` per span name.
fn self_times(spans: &[Span]) -> Vec<(&'static str, u64, f64, f64)> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.end_ns - s.start_ns;
        }
    }
    let mut by_name: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        let total = s.end_ns - s.start_ns;
        let e = by_name.entry(s.name).or_default();
        e.0 += 1;
        e.1 += total;
        e.2 += total.saturating_sub(child_ns[i]);
    }
    by_name
        .into_iter()
        .map(|(n, (c, t, s))| (n, c, t as f64 / 1e6, s as f64 / 1e6))
        .collect()
}

/// Writes every span and the self-time table to
/// `perfbench/traces/<workload>-<seed>.json` and prints the table to
/// standard error.
pub fn write_report(workload: &str, seed: u64) -> std::io::Result<()> {
    TRACER.with(|t| {
        let t = t.borrow();
        let Some(tr) = t.as_ref() else {
            return Ok(());
        };
        let table = self_times(&tr.spans);
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"workload\": \"{workload}\", \"seed\": {seed}, \"self_times\": ["
        );
        for (i, (name, count, total, own)) in table.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}{{\"name\": \"{name}\", \"spans\": {count}, \"total_ms\": {total:.3}, \"self_ms\": {own:.3}}}"
            );
        }
        out.push_str("], \"spans\": [");
        for (i, s) in tr.spans.iter().enumerate() {
            let sep = if i == 0 { "" } else { ",\n" };
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{sep}{{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"root\": {}}}",
                s.name, s.start_ns, s.end_ns, s.root
            );
        }
        out.push_str("]}\n");
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("traces");
        std::fs::create_dir_all(&dir)?;
        let path = dir.join(format!("{workload}-{seed}.json"));
        std::fs::write(&path, out)?;
        eprintln!("self times ({} spans, written to {}):", tr.spans.len(), path.display());
        eprintln!("{:<28} {:>8} {:>12} {:>12}", "span", "count", "total_ms", "self_ms");
        for (name, count, total, own) in table {
            eprintln!("{name:<28} {count:>8} {total:>12.1} {own:>12.1}");
        }
        Ok(())
    })
}
