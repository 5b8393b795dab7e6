//! The traced run's span recorder.
//!
//! A span wraps one call from this benchmark into a layer of the program.
//! Spans nest per thread; when a span ends, its duration minus the time
//! its child spans covered is added to the layer's *self* time. Spans and counters live in memory (per thread,
//! merged into a process-wide table whenever a thread's outermost span
//! ends) and are read once, when the benchmark reports.
//!
//! Work runs in *phases*. A serial phase occupies one thread; a parallel
//! phase occupies `workers` threads of the campaign runtime's
//! work-stealing pool for its wall time. The phases' capacity
//! (wall x threads) is the traced wall in thread-seconds: every
//! thread-second is a layer's self time, pool idle time, or unattributed
//! benchmark glue.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use druzhba::dsim::runtime::{run_stealing_observed, WorkerPanic};

/// The outermost span around each unit of traced work. Its self time is
/// benchmark glue, reported as unattributed, never as a layer.
pub const ROOT: &str = "bench";

/// Phase accounting of a traced run.
#[derive(Debug, Default, Clone, Copy)]
pub struct Capacity {
    /// Wall time of all phases, in seconds.
    pub wall_s: f64,
    /// Wall x threads summed over phases, in thread-seconds.
    pub thread_s: f64,
    /// Parallel phases only: wall x workers, in thread-seconds.
    pub pool_thread_s: f64,
    /// Parallel phases only: time workers spent inside items.
    pub pool_busy_s: f64,
}

/// Self seconds per layer and counter totals.
#[derive(Default)]
struct Table {
    self_s: BTreeMap<&'static str, f64>,
    counts: BTreeMap<&'static str, f64>,
}

impl Table {
    fn merge(&mut self, other: &mut Table) {
        for (name, s) in std::mem::take(&mut other.self_s) {
            *self.self_s.entry(name).or_default() += s;
        }
        for (name, n) in std::mem::take(&mut other.counts) {
            *self.counts.entry(name).or_default() += n;
        }
    }
}

struct Frame {
    start: Instant,
    children: Duration,
}

thread_local! {
    static STACK: RefCell<Vec<Frame>> = const { RefCell::new(Vec::new()) };
    static LOCAL: RefCell<Table> = RefCell::new(Table::default());
}

static GLOBAL: Mutex<Option<Table>> = Mutex::new(None);
static CAPACITY: Mutex<Capacity> = Mutex::new(Capacity {
    wall_s: 0.0,
    thread_s: 0.0,
    pool_thread_s: 0.0,
    pool_busy_s: 0.0,
});

/// Ends its span on drop, so a span unwound by a captured panic still
/// closes.
struct Guard {
    name: &'static str,
}

impl Drop for Guard {
    fn drop(&mut self) {
        let (elapsed, children, outermost) = STACK.with(|s| {
            let mut stack = s.borrow_mut();
            let frame = stack.pop().expect("span stack is balanced");
            let elapsed = frame.start.elapsed();
            if let Some(parent) = stack.last_mut() {
                parent.children += elapsed;
            }
            (elapsed, frame.children, stack.is_empty())
        });
        LOCAL.with(|l| {
            let mut local = l.borrow_mut();
            *local.self_s.entry(self.name).or_default() +=
                elapsed.saturating_sub(children).as_secs_f64();
            if outermost {
                let mut global = GLOBAL.lock().unwrap_or_else(|p| p.into_inner());
                global.get_or_insert_with(Table::default).merge(&mut local);
            }
        });
    }
}

static ENABLED: AtomicBool = AtomicBool::new(false);

/// Start recording. Before this, spans and counters cost one relaxed load
/// and record nothing, so untraced set-up and measurement carry no
/// tracing.
pub fn enable() {
    ENABLED.store(true, Ordering::Relaxed);
}

/// Run `f` inside a span of layer `name`.
pub fn span<R>(name: &'static str, f: impl FnOnce() -> R) -> R {
    if !ENABLED.load(Ordering::Relaxed) {
        return f();
    }
    STACK.with(|s| {
        s.borrow_mut().push(Frame {
            start: Instant::now(),
            children: Duration::ZERO,
        })
    });
    let _guard = Guard { name };
    f()
}

/// Add `n` to counter `name` (merged with the enclosing outermost span).
pub fn count(name: &'static str, n: f64) {
    if !ENABLED.load(Ordering::Relaxed) {
        return;
    }
    LOCAL.with(|l| *l.borrow_mut().counts.entry(name).or_default() += n);
}

fn add_capacity(wall: Duration, threads: usize, pool_busy: Option<Duration>, extra: Duration) {
    let mut c = CAPACITY.lock().unwrap_or_else(|p| p.into_inner());
    let wall = wall.as_secs_f64();
    c.wall_s += wall;
    c.thread_s += wall * threads as f64 + extra.as_secs_f64();
    if let Some(busy) = pool_busy {
        c.pool_thread_s += wall * threads as f64;
        c.pool_busy_s += busy.as_secs_f64();
    }
}

/// A phase on the calling thread alone.
pub fn serial<R>(f: impl FnOnce() -> R) -> R {
    let start = Instant::now();
    let out = span(ROOT, f);
    add_capacity(start.elapsed(), 1, None, Duration::ZERO);
    out
}

/// A phase on the campaign runtime's work-stealing pool, the scheduler
/// every campaign entry point uses: `f` runs once per item on up to
/// `workers` threads, and `observe` runs on the calling thread as each
/// item completes (as the campaigns' checkpoint hooks do). Time the
/// calling thread spends in `observe` counts as one more busy thread.
pub fn parallel<T, R, F, O>(
    items: Vec<T>,
    workers: usize,
    f: F,
    mut observe: O,
) -> Vec<Result<R, WorkerPanic>>
where
    T: Send,
    R: Send,
    F: Fn(usize, T) -> R + Sync,
    O: FnMut(usize),
{
    let threads = workers.clamp(1, items.len().max(1));
    let start = Instant::now();
    let mut observer = Duration::ZERO;
    let results = run_stealing_observed(
        items,
        workers,
        None,
        |i, item| {
            let t = Instant::now();
            let r = span(ROOT, || f(i, item));
            (r, t.elapsed())
        },
        |i, _| {
            let t = Instant::now();
            span(ROOT, || observe(i));
            observer += t.elapsed();
        },
    );
    let wall = start.elapsed();
    let mut busy = Duration::ZERO;
    let mut out = Vec::with_capacity(results.len());
    for r in results {
        match r.expect("no deadline, so every item runs") {
            Ok((v, d)) => {
                busy += d;
                out.push(Ok(v));
            }
            Err(p) => out.push(Err(p)),
        }
    }
    // The calling thread's hook time is work beside the pool's threads.
    add_capacity(wall, threads, Some(busy), observer);
    out
}

/// Everything recorded so far: self seconds per layer, counters, and
/// the phases' capacity.
pub fn snapshot() -> (
    BTreeMap<&'static str, f64>,
    BTreeMap<&'static str, f64>,
    Capacity,
) {
    let global = GLOBAL.lock().unwrap_or_else(|p| p.into_inner());
    let (layers, counts) = match global.as_ref() {
        Some(t) => (t.self_s.clone(), t.counts.clone()),
        None => (BTreeMap::new(), BTreeMap::new()),
    };
    let capacity = *CAPACITY.lock().unwrap_or_else(|p| p.into_inner());
    (layers, counts, capacity)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        enable();
        serial(|| {
            span("outer", || {
                std::thread::sleep(Duration::from_millis(20));
                span("inner", || std::thread::sleep(Duration::from_millis(30)));
            })
        });
        let (layers, _, capacity) = snapshot();
        let (outer, inner) = (layers["outer"], layers["inner"]);
        assert!(inner >= 0.03);
        // The outer span's 30 ms child is not its own time.
        assert!((0.02..0.045).contains(&outer), "outer self {outer}");
        assert!(capacity.thread_s >= outer + inner + layers[ROOT]);
    }
}
