//! In-memory spans around calls into the measured program's layers,
//! written out once at the end as Chrome trace-event JSON (opens in
//! Perfetto or chrome://tracing).
//!
//! Tracing is off unless [`set_enabled`] turned it on; an untraced [`span`]
//! is a direct call of its closure, so untraced runs time the program
//! alone.

use crate::json::Value;
use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// One closed span. Times are nanoseconds since the tracer's epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    /// Spans of one logical run (one timed phase or probe) share it.
    pub run: u64,
    pub name: String,
    pub tid: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Where a new span attaches: its parent span and run id.
#[derive(Debug, Clone, Copy)]
pub struct Ctx {
    pub parent: u64,
    pub run: u64,
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static NEXT_TID: AtomicU64 = AtomicU64::new(1);
static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());
static EPOCH: OnceLock<Instant> = OnceLock::new();

thread_local! {
    static STACK: RefCell<Vec<Ctx>> = const { RefCell::new(Vec::new()) };
    static TID: Cell<u64> = const { Cell::new(0) };
}

/// Turn span recording on or off for every thread.
pub fn set_enabled(on: bool) {
    EPOCH.get_or_init(Instant::now);
    ENABLED.store(on, Ordering::SeqCst);
}

fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

fn tid() -> u64 {
    TID.with(|t| {
        if t.get() == 0 {
            t.set(NEXT_TID.fetch_add(1, Ordering::Relaxed));
        }
        t.get()
    })
}

/// The innermost open span of this thread, for handing to threads the
/// traced code spawns (see [`within`]).
pub fn current() -> Option<Ctx> {
    STACK.with(|s| s.borrow().last().copied())
}

/// Run `f` on this thread as if nested in `ctx` (a span opened on
/// another thread).
pub fn within<T>(ctx: Option<Ctx>, f: impl FnOnce() -> T) -> T {
    let Some(ctx) = ctx.filter(|_| enabled()) else {
        return f();
    };
    STACK.with(|s| s.borrow_mut().push(ctx));
    let out = f();
    STACK.with(|s| s.borrow_mut().pop());
    out
}

fn open(name: &str, fresh_run: bool) -> (Span, usize) {
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let parent = current();
    let run = match parent {
        Some(p) if !fresh_run => p.run,
        _ => id,
    };
    let depth = STACK.with(|s| {
        let mut s = s.borrow_mut();
        s.push(Ctx { parent: id, run });
        s.len()
    });
    let span = Span {
        id,
        parent: parent.map(|p| p.parent),
        run,
        name: name.to_string(),
        tid: tid(),
        start_ns: now_ns(),
        end_ns: 0,
    };
    (span, depth)
}

fn close(mut span: Span, depth: usize) {
    span.end_ns = now_ns();
    STACK.with(|s| s.borrow_mut().truncate(depth - 1));
    SPANS.lock().expect("span store poisoned").push(span);
}

fn traced<T>(name: &str, fresh_run: bool, f: impl FnOnce() -> T) -> T {
    if !enabled() {
        return f();
    }
    let (span, depth) = open(name, fresh_run);
    let out = f();
    close(span, depth);
    out
}

/// Time `f` as a span named `name`, nested in the current span.
pub fn span<T>(name: &str, f: impl FnOnce() -> T) -> T {
    traced(name, false, f)
}

/// Like [`span`], but the span starts a new run id that its
/// descendants share.
pub fn run<T>(name: &str, f: impl FnOnce() -> T) -> T {
    traced(name, true, f)
}

/// Every span closed so far, in closing order.
pub fn spans() -> Vec<Span> {
    SPANS.lock().expect("span store poisoned").clone()
}

/// Nanoseconds of `[start, end)` not covered by any of `children`
/// (children may overlap each other, e.g. spans of parallel threads,
/// and are clipped to the parent interval).
pub fn self_time(start: u64, end: u64, children: &[(u64, u64)]) -> u64 {
    let mut iv: Vec<(u64, u64)> = children
        .iter()
        .map(|&(s, e)| (s.max(start), e.min(end)))
        .filter(|(s, e)| s < e)
        .collect();
    iv.sort_unstable();
    let mut covered = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (s, e) in iv {
        match cur {
            Some((cs, ce)) if s <= ce => cur = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                covered += ce - cs;
                cur = Some((s, e));
            }
            None => cur = Some((s, e)),
        }
    }
    if let Some((cs, ce)) = cur {
        covered += ce - cs;
    }
    end.saturating_sub(start) - covered
}

/// Per-name totals: `(name, count, total_ns, self_ns)`, sorted by
/// descending self time.
pub fn summarize(spans: &[Span]) -> Vec<(String, u64, u64, u64)> {
    use std::collections::BTreeMap;
    let mut kids: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            kids.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    let mut agg: BTreeMap<&str, (u64, u64, u64)> = BTreeMap::new();
    for s in spans {
        let own = self_time(
            s.start_ns,
            s.end_ns,
            kids.get(&s.id).map_or(&[][..], |v| v.as_slice()),
        );
        let e = agg.entry(s.name.as_str()).or_default();
        e.0 += 1;
        e.1 += s.end_ns - s.start_ns;
        e.2 += own;
    }
    let mut out: Vec<_> = agg
        .into_iter()
        .map(|(n, (c, t, o))| (n.to_string(), c, t, o))
        .collect();
    out.sort_by(|a, b| b.3.cmp(&a.3).then_with(|| a.0.cmp(&b.0)));
    out
}

/// Chrome trace-event JSON ("X" complete events, microseconds).
pub fn chrome_json(spans: &[Span]) -> Value {
    let events = spans
        .iter()
        .map(|s| {
            let mut args = vec![
                ("id".to_string(), Value::Num(s.id as f64)),
                ("run".to_string(), Value::Num(s.run as f64)),
            ];
            if let Some(p) = s.parent {
                args.push(("parent".to_string(), Value::Num(p as f64)));
            }
            Value::Obj(vec![
                ("name".into(), Value::Str(s.name.clone())),
                ("ph".into(), Value::Str("X".into())),
                ("pid".into(), Value::Num(1.0)),
                ("tid".into(), Value::Num(s.tid as f64)),
                ("ts".into(), Value::Num(s.start_ns as f64 / 1e3)),
                (
                    "dur".into(),
                    Value::Num((s.end_ns - s.start_ns) as f64 / 1e3),
                ),
                ("args".into(), Value::Obj(args)),
            ])
        })
        .collect();
    Value::Obj(vec![
        ("traceEvents".into(), Value::Arr(events)),
        ("displayTimeUnit".into(), Value::Str("ms".into())),
    ])
}
