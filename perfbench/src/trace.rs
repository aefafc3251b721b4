//! In-memory span recorder used by the traced runs.
//!
//! Spans are recorded by the benchmark around its own calls into the
//! workspace crates; nothing inside the crates is instrumented. A span has a
//! name, a start and an end (seconds since the first [`install`]), the
//! span that was open on the same thread when it began (its parent), and
//! the cycle it belongs to. Spans stay in memory until [`finish`] takes
//! them. With no tracer installed, [`span`] costs one atomic load.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

#[derive(Clone, Debug)]
pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    pub name: &'static str,
    pub cycle: u64,
    pub start: f64,
    pub end: f64,
}

impl Span {
    pub fn dur(&self) -> f64 {
        self.end - self.start
    }
}

static ON: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU32 = AtomicU32::new(0);
static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());
static EPOCH: OnceLock<Instant> = OnceLock::new();

thread_local! {
    static OPEN: RefCell<Vec<u32>> = const { RefCell::new(Vec::new()) };
}

/// Start recording spans.
pub fn install() {
    EPOCH.get_or_init(Instant::now);
    SPANS.lock().unwrap().clear();
    ON.store(true, Ordering::Release);
}

/// Stop recording and hand back every span recorded since [`install`].
pub fn finish() -> Vec<Span> {
    ON.store(false, Ordering::Release);
    std::mem::take(&mut *SPANS.lock().unwrap())
}

/// Record a span whose ends were measured elsewhere (no parent).
pub fn record(name: &'static str, cycle: u64, t0: Instant, t1: Instant) {
    if !ON.load(Ordering::Relaxed) {
        return;
    }
    let epoch = *EPOCH.get_or_init(Instant::now);
    SPANS.lock().unwrap().push(Span {
        id: NEXT_ID.fetch_add(1, Ordering::Relaxed),
        parent: None,
        name,
        cycle,
        start: t0.saturating_duration_since(epoch).as_secs_f64(),
        end: t1.saturating_duration_since(epoch).as_secs_f64(),
    });
}

/// Open span; closed (and recorded) on drop.
pub struct Guard {
    open: Option<(u32, Option<u32>, &'static str, u64, Instant)>,
}

/// Open a span named `name` for `cycle` on the current thread.
pub fn span(name: &'static str, cycle: u64) -> Guard {
    if !ON.load(Ordering::Relaxed) {
        return Guard { open: None };
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let parent = OPEN.with(|o| {
        let mut o = o.borrow_mut();
        let p = o.last().copied();
        o.push(id);
        p
    });
    Guard {
        open: Some((id, parent, name, cycle, Instant::now())),
    }
}

impl Drop for Guard {
    fn drop(&mut self) {
        let Some((id, parent, name, cycle, t0)) = self.open.take() else {
            return;
        };
        let t1 = Instant::now();
        OPEN.with(|o| {
            o.borrow_mut().pop();
        });
        let epoch = *EPOCH.get_or_init(Instant::now);
        SPANS.lock().unwrap().push(Span {
            id,
            parent,
            name,
            cycle,
            start: (t0 - epoch).as_secs_f64(),
            end: (t1 - epoch).as_secs_f64(),
        });
    }
}

/// Self time of every span: its duration minus the durations of its
/// children (children are nested on the parent's thread, so they lie
/// inside it).
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let index: BTreeMap<u32, usize> = spans.iter().enumerate().map(|(i, s)| (s.id, i)).collect();
    let mut out: Vec<f64> = spans.iter().map(Span::dur).collect();
    for s in spans {
        if let Some(&p) = s.parent.and_then(|p| index.get(&p)) {
            out[p] -= s.dur();
        }
    }
    out
}

/// Per-cycle sums of self time by span name: `name -> cycle -> seconds`.
pub fn self_time_by_cycle(spans: &[Span]) -> BTreeMap<&'static str, BTreeMap<u64, f64>> {
    let mut by: BTreeMap<&'static str, BTreeMap<u64, f64>> = BTreeMap::new();
    for (s, t) in spans.iter().zip(self_times(spans)) {
        *by.entry(s.name).or_default().entry(s.cycle).or_default() += t;
    }
    by
}

/// One JSON line per span, for writing out at the end of a run.
pub fn to_jsonl(spans: &[Span]) -> String {
    let mut out = String::new();
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        out.push_str(&format!(
            "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"cycle\":{},\"start\":{:.9},\"end\":{:.9}}}\n",
            s.id, parent, s.name, s.cycle, s.start, s.end
        ));
    }
    out
}
