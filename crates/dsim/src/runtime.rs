//! Crash-proof campaign runtime: silent panic capture and a work-stealing
//! scheduler whose results stay index-ordered.
//!
//! Long differential campaigns (FP4's line-rate fuzzing, Gauntlet's
//! overnight runs) win by *surviving*: a backend crash on one mutant must
//! not unwind the whole process, and a slow shard must not idle every
//! other worker. This module supplies the two mechanisms the campaign
//! layers build on:
//!
//! - [`catch_silent`] runs one closure under `catch_unwind` with the
//!   default panic-hook output suppressed, returning the payload as a
//!   per-item [`WorkerPanic`] instead of aborting — the primitive behind
//!   the `backend_panic` verdict class.
//! - [`run_stealing`] / [`run_stealing_observed`] replace fixed-chunk
//!   sharding with a chunked-deque stealing pool. Each worker starts with
//!   a contiguous chunk, pops from its own front, and steals the back
//!   half of a victim's deque when idle. **Scheduling is dynamic but the
//!   result is not**: every item's output is written into the slot of its
//!   original index, so any report that is a pure function of the ordered
//!   results is identical across worker counts and steal interleavings.
//!
//! [`RuntimeOptions`] carries the crash-proofing knobs (checkpoint
//! directory and cadence, resume, wall-clock budget) from the CLI down
//! into [`run_campaign`], the one resumable driver every per-task
//! campaign (fuzz, p4-fuzz, hunt, p4-hunt, genhunt) plugs into through
//! the [`Campaign`] trait.

use std::cell::Cell;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Mutex, Once};
use std::time::{Duration, Instant};

use crate::snapshot;

/// A panic captured from one work item: the stringified payload, which for
/// the deterministic hostile trap (and any `panic!` with a message) is a
/// stable, replayable description of the crash.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkerPanic {
    /// The panic payload rendered as text (`String` / `&str` payloads
    /// verbatim; anything else becomes a fixed placeholder).
    pub payload: String,
}

/// Render a panic payload as text.
pub fn panic_payload(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else {
        "non-string panic payload".to_string()
    }
}

thread_local! {
    /// True while this thread is inside [`catch_silent`]: the chained
    /// panic hook stays quiet so an *expected* backend crash does not spam
    /// stderr with a captured-and-handled backtrace.
    static SUPPRESS_PANIC_OUTPUT: Cell<bool> = const { Cell::new(false) };
}

/// Install (once, process-wide) a panic hook that suppresses output for
/// panics captured by [`catch_silent`] and defers to the previous hook for
/// everything else — a genuine crash still prints normally.
fn install_silent_hook() {
    static INSTALL: Once = Once::new();
    INSTALL.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if !SUPPRESS_PANIC_OUTPUT.with(Cell::get) {
                prev(info);
            }
        }));
    });
}

/// Run `f` under `catch_unwind`, capturing a panic as [`WorkerPanic`]
/// without letting the panic hook print.
///
/// The `AssertUnwindSafe` is a contract with the caller: everything `f`
/// touches must either be owned by this one invocation or be discarded by
/// the caller on `Err` (campaign drivers treat a panicking evaluation as
/// terminal for the state it touched — e.g. a cached pipeline is never
/// reused after its backend panicked).
pub fn catch_silent<R>(f: impl FnOnce() -> R) -> Result<R, WorkerPanic> {
    install_silent_hook();
    SUPPRESS_PANIC_OUTPUT.with(|s| s.set(true));
    let out = catch_unwind(AssertUnwindSafe(f));
    SUPPRESS_PANIC_OUTPUT.with(|s| s.set(false));
    out.map_err(|p| WorkerPanic {
        payload: panic_payload(p),
    })
}

/// Crash-proofing options threaded from the CLI into campaign drivers.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RuntimeOptions {
    /// Directory for checkpoint snapshots and the heartbeat file
    /// (`--checkpoint DIR` / `--resume DIR`). `None` disables
    /// checkpointing.
    pub checkpoint_dir: Option<PathBuf>,
    /// Checkpoint cadence (`--every N`): a snapshot every N completed
    /// units (evaluations for campaigns, merge rounds for greybox).
    /// `0` is normalized to 1.
    pub checkpoint_every: usize,
    /// True for `--resume DIR`: load the latest good snapshot from
    /// `checkpoint_dir` before starting, degrading gracefully (fall back
    /// to the previous snapshot, then to a fresh start) on corruption.
    pub resume: bool,
    /// Wall-clock budget in seconds (`--budget-secs S`). When it expires
    /// the round ends cleanly and the report is marked truncated.
    pub budget_secs: Option<u64>,
}

impl RuntimeOptions {
    /// The checkpoint cadence with `0` normalized to 1.
    pub fn effective_every(&self) -> usize {
        self.checkpoint_every.max(1)
    }

    /// The absolute deadline implied by the budget, anchored at `start`.
    pub fn deadline(&self, start: Instant) -> Option<Instant> {
        self.budget_secs.map(|s| start + Duration::from_secs(s))
    }
}

/// Steal the back half of the first non-empty victim deque (scanning
/// cyclically from `me + 1`), queue all but the first stolen item locally,
/// and return that first item.
fn steal<T>(deques: &[Mutex<VecDeque<(usize, T)>>], me: usize) -> Option<(usize, T)> {
    let n = deques.len();
    for off in 1..n {
        let victim = (me + off) % n;
        let stolen = {
            let mut v = deques[victim].lock().expect("deque lock");
            let len = v.len();
            if len == 0 {
                continue;
            }
            // Owner pops from the front; we take the back half, keeping
            // contention windows short and work contiguous on both sides.
            v.split_off(len - len.div_ceil(2))
        };
        let mut it = stolen.into_iter();
        let first = it.next();
        deques[me].lock().expect("deque lock").extend(it);
        return first;
    }
    None
}

/// Run every item through `f` on a work-stealing pool, writing each result
/// into the slot of the item's original index and invoking `observe` on
/// the coordinating thread as each item completes (the checkpoint hook).
///
/// - A panicking `f` yields `Some(Err(WorkerPanic))` for that item only;
///   all other items still run.
/// - When `deadline` passes, workers stop cleanly between items; items
///   that never started stay `None` (the budget-truncation signal).
/// - `observe(index, &result)` is called exactly once per completed item,
///   in **completion** order (not index order) — callers that persist
///   progress must key by index, as the campaign checkpoints do.
pub fn run_stealing_observed<T, R, F, O>(
    items: Vec<T>,
    workers: usize,
    deadline: Option<Instant>,
    f: F,
    mut observe: O,
) -> Vec<Option<Result<R, WorkerPanic>>>
where
    T: Send,
    R: Send,
    F: Fn(usize, T) -> R + Sync,
    O: FnMut(usize, &Result<R, WorkerPanic>),
{
    let total = items.len();
    let mut results: Vec<Option<Result<R, WorkerPanic>>> = Vec::new();
    results.resize_with(total, || None);
    if total == 0 {
        return results;
    }
    let workers = workers.clamp(1, total);

    // Seed each deque with a contiguous chunk — the same initial split the
    // legacy fixed sharder used, so the no-steal fast path touches each
    // cache line once.
    let chunk = total.div_ceil(workers);
    let mut deques: Vec<Mutex<VecDeque<(usize, T)>>> = Vec::with_capacity(workers);
    let mut numbered: VecDeque<(usize, T)> = items.into_iter().enumerate().collect();
    for _ in 0..workers {
        let rest = numbered.split_off(chunk.min(numbered.len()));
        deques.push(Mutex::new(std::mem::replace(&mut numbered, rest)));
    }

    let stop = AtomicBool::new(false);
    let (tx, rx) = mpsc::channel::<(usize, Result<R, WorkerPanic>)>();
    std::thread::scope(|scope| {
        for w in 0..workers {
            let tx = tx.clone();
            let deques = &deques;
            let stop = &stop;
            let f = &f;
            scope.spawn(move || loop {
                if stop.load(Ordering::Relaxed) {
                    break;
                }
                if let Some(dl) = deadline {
                    if Instant::now() >= dl {
                        stop.store(true, Ordering::Relaxed);
                        break;
                    }
                }
                // Pop under a scoped lock: the guard must drop before
                // `steal` runs, which re-locks this worker's own deque to
                // stash the stolen surplus.
                let own = deques[w].lock().expect("deque lock").pop_front();
                let job = own.or_else(|| steal(deques, w));
                let Some((idx, item)) = job else { break };
                let out = catch_silent(|| f(idx, item));
                if tx.send((idx, out)).is_err() {
                    break;
                }
            });
        }
        drop(tx);
        for (idx, res) in rx {
            observe(idx, &res);
            results[idx] = Some(res);
        }
    });
    results
}

/// [`run_stealing_observed`] without a deadline or observer: every item
/// runs, so the result vector is dense — index-ordered per-item
/// `Result`s.
pub fn run_stealing<T, R, F>(items: Vec<T>, workers: usize, f: F) -> Vec<Result<R, WorkerPanic>>
where
    T: Send,
    R: Send,
    F: Fn(usize, T) -> R + Sync,
{
    run_stealing_observed(items, workers, None, f, |_, _| {})
        .into_iter()
        .map(|slot| slot.expect("no deadline: every item completes"))
        .collect()
}

/// One resumable campaign: a fixed list of index-addressed tasks, each
/// evaluated independently, whose completed outcomes checkpoint as one
/// snapshot line apiece. [`run_campaign`] owns everything else — resume,
/// scheduling, checkpoint cadence, heartbeats, pool-level panics and the
/// wall-clock budget.
///
/// Task order must be a pure function of the configuration: restored and
/// fresh tasks interleave by index into the report an uninterrupted run
/// produces.
pub trait Campaign: Sync {
    /// The result of evaluating one task in this process.
    type Outcome: Send;
    /// What a checkpoint line restores on resume.
    type Record;

    /// Snapshot kind: names `<kind>.snapshot` and the heartbeat's
    /// `"kind"`.
    fn kind(&self) -> &str;
    /// Fingerprint of the campaign configuration; a snapshot written
    /// under a different one is not resumed.
    fn fingerprint(&self) -> u64;
    /// Number of tasks.
    fn tasks(&self) -> usize;
    /// Evaluate task `task` (runs on a pool worker).
    fn evaluate(&self, task: usize) -> Self::Outcome;
    /// The outcome of a task whose evaluation panicked past every
    /// per-case guard: the crash becomes a row, not an abort.
    fn panicked(&self, task: usize, payload: String) -> Self::Outcome;
    /// The checkpoint line for a completed task, or `None` to leave it
    /// out of the snapshot (it re-runs on resume).
    fn checkpoint_line(&self, task: usize, outcome: &Self::Outcome) -> Option<String>;
    /// Decode a checkpoint line into `(task, record)`; `None` marks the
    /// line malformed, and its task re-runs.
    fn restore(&self, line: &str) -> Option<(usize, Self::Record)>;
}

/// What became of one task in [`run_campaign`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TaskResult<R, O> {
    /// Restored from the checkpoint without re-evaluating.
    Restored(R),
    /// Evaluated by this process (a pool-level panic included).
    Fresh(O),
    /// Never started: the wall-clock budget expired first.
    Truncated,
}

impl<T> TaskResult<T, T> {
    /// The restored or fresh value of a campaign whose records are its
    /// outcomes; `None` when truncated.
    pub fn done(self) -> Option<T> {
        match self {
            TaskResult::Restored(t) | TaskResult::Fresh(t) => Some(t),
            TaskResult::Truncated => None,
        }
    }
}

/// The index-ordered result of [`run_campaign`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CampaignRun<R, O> {
    /// One result per task, in task order.
    pub tasks: Vec<TaskResult<R, O>>,
    /// Tasks left [`TaskResult::Truncated`] by the budget.
    pub truncated: usize,
}

impl<R, O> CampaignRun<R, (O, R)> {
    /// Split a run whose fresh outcomes carry their own record: every
    /// completed task's record in task order, plus the outcomes this
    /// process evaluated.
    pub fn records_and_outcomes(self) -> (Vec<R>, Vec<O>) {
        let mut records = Vec::with_capacity(self.tasks.len());
        let mut outcomes = Vec::new();
        for task in self.tasks {
            match task {
                TaskResult::Restored(record) => records.push(record),
                TaskResult::Fresh((outcome, record)) => {
                    records.push(record);
                    outcomes.push(outcome);
                }
                TaskResult::Truncated => {}
            }
        }
        (records, outcomes)
    }
}

/// Run `campaign` on the work-stealing pool under `runtime`'s
/// crash-proofing options:
///
/// 1. on `--resume`, load the newest valid snapshot ([`load_latest`]),
///    print its warnings, and restore every line that decodes (a line
///    that does not is reported and its task re-runs);
/// 2. evaluate the pending tasks with [`run_stealing_observed`] until the
///    budget's deadline, saving the snapshot and `status.json` heartbeat
///    every [`RuntimeOptions::effective_every`] completions;
/// 3. turn a pool-level [`WorkerPanic`] into [`Campaign::panicked`]'s
///    outcome, count the truncated tasks, and save a final snapshot and
///    heartbeat.
///
/// Snapshot lines are kept per task index, so every save lists them in
/// task order whatever the completion order was.
///
/// [`load_latest`]: crate::snapshot::load_latest
pub fn run_campaign<C: Campaign>(
    campaign: &C,
    workers: usize,
    runtime: &RuntimeOptions,
) -> CampaignRun<C::Record, C::Outcome> {
    let (kind, fingerprint, total) = (campaign.kind(), campaign.fingerprint(), campaign.tasks());
    let dir = runtime.checkpoint_dir.as_deref();
    let mut tasks: Vec<TaskResult<C::Record, C::Outcome>> = Vec::new();
    tasks.resize_with(total, || TaskResult::Truncated);
    let mut lines: Vec<Option<String>> = vec![None; total];
    if let (true, Some(dir)) = (runtime.resume, dir) {
        let loaded = snapshot::load_latest(dir, kind, fingerprint);
        for w in &loaded.warnings {
            eprintln!("warning: {w}");
        }
        for line in loaded.lines.unwrap_or_default() {
            match campaign.restore(&line) {
                Some((task, record)) if task < total => {
                    tasks[task] = TaskResult::Restored(record);
                    lines[task] = Some(line);
                }
                _ => eprintln!("warning: ignoring malformed {kind} checkpoint line"),
            }
        }
    }
    let pending: Vec<usize> = (0..total)
        .filter(|&t| matches!(tasks[t], TaskResult::Truncated))
        .collect();

    let save = |lines: &[Option<String>], completed: usize, truncated: bool| {
        let Some(dir) = dir else { return };
        let payload: Vec<String> = lines.iter().flatten().cloned().collect();
        if let Err(e) = snapshot::save(dir, kind, fingerprint, &payload) {
            eprintln!("warning: failed to write {kind} checkpoint: {e}");
        }
        snapshot::write_heartbeat(dir, kind, completed, total, truncated);
    };
    let every = runtime.effective_every();
    let mut completed = total - pending.len();
    let mut since_save = 0usize;
    let results = run_stealing_observed(
        pending.clone(),
        workers,
        runtime.deadline(Instant::now()),
        |_, task| campaign.evaluate(task),
        |i, result| {
            completed += 1;
            if dir.is_none() {
                return;
            }
            let task = pending[i];
            lines[task] = match result {
                Ok(outcome) => campaign.checkpoint_line(task, outcome),
                Err(p) => {
                    campaign.checkpoint_line(task, &campaign.panicked(task, p.payload.clone()))
                }
            };
            since_save += 1;
            if since_save >= every {
                since_save = 0;
                save(&lines, completed, false);
            }
        },
    );

    let mut truncated = 0usize;
    for (task, result) in pending.into_iter().zip(results) {
        match result {
            Some(Ok(outcome)) => tasks[task] = TaskResult::Fresh(outcome),
            Some(Err(p)) => tasks[task] = TaskResult::Fresh(campaign.panicked(task, p.payload)),
            None => truncated += 1,
        }
    }
    save(&lines, total - truncated, truncated > 0);
    CampaignRun { tasks, truncated }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_are_index_ordered_for_any_worker_count() {
        let expected: Vec<usize> = (0..97).map(|i| i * 3).collect();
        for workers in [1, 2, 3, 8, 97, 200] {
            let got: Vec<usize> = run_stealing((0..97).collect(), workers, |_, i: usize| i * 3)
                .into_iter()
                .map(|r| r.expect("no panics"))
                .collect();
            assert_eq!(got, expected, "workers={workers}");
        }
    }

    #[test]
    fn a_panicking_item_fails_alone() {
        let results = run_stealing((0..16).collect(), 4, |_, i: usize| {
            if i == 5 {
                panic!("boom at {i}");
            }
            i
        });
        for (i, r) in results.iter().enumerate() {
            if i == 5 {
                let p = r.as_ref().expect_err("item 5 panicked");
                assert_eq!(p.payload, "boom at 5");
            } else {
                assert_eq!(*r.as_ref().expect("others complete"), i);
            }
        }
    }

    #[test]
    fn an_expired_deadline_leaves_items_unstarted() {
        let past = Instant::now() - Duration::from_secs(1);
        let results =
            run_stealing_observed((0..8).collect(), 2, Some(past), |_, i: usize| i, |_, _| {});
        assert!(results.iter().all(Option::is_none), "budget already spent");
    }

    #[test]
    fn observer_sees_every_item_exactly_once() {
        let mut seen = vec![0usize; 40];
        run_stealing_observed(
            (0..40).collect(),
            3,
            None,
            |_, i: usize| i,
            |idx, res| {
                assert!(res.is_ok());
                seen[idx] += 1;
            },
        );
        assert!(seen.iter().all(|&c| c == 1));
    }

    #[test]
    fn uneven_items_still_fill_every_slot() {
        // Items with wildly different costs exercise the steal path.
        let results = run_stealing((0..64).collect(), 4, |_, i: usize| {
            if i < 4 {
                std::thread::sleep(Duration::from_millis(20));
            }
            i + 1
        });
        let got: Vec<usize> = results.into_iter().map(|r| r.unwrap()).collect();
        assert_eq!(got, (1..=64).collect::<Vec<_>>());
    }

    /// Task `t` squares `t`, except task 3, which panics; every outcome
    /// checkpoints as `<t> <value>`.
    struct Squares;

    impl Campaign for Squares {
        type Outcome = i64;
        type Record = i64;

        fn kind(&self) -> &str {
            "squares"
        }

        fn fingerprint(&self) -> u64 {
            7
        }

        fn tasks(&self) -> usize {
            6
        }

        fn evaluate(&self, task: usize) -> i64 {
            assert_ne!(task, 3, "task 3 dies");
            (task * task) as i64
        }

        fn panicked(&self, _: usize, _: String) -> i64 {
            -1
        }

        fn checkpoint_line(&self, task: usize, value: &i64) -> Option<String> {
            Some(format!("{task} {value}"))
        }

        fn restore(&self, line: &str) -> Option<(usize, i64)> {
            let (task, value) = line.split_once(' ')?;
            Some((task.parse().ok()?, value.parse().ok()?))
        }
    }

    #[test]
    fn campaign_resumes_restored_tasks_and_reruns_the_rest() {
        let dir = std::env::temp_dir().join(format!("druzhba-campaign-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut runtime = RuntimeOptions {
            checkpoint_dir: Some(dir.clone()),
            checkpoint_every: 2,
            ..RuntimeOptions::default()
        };
        let fresh = run_campaign(&Squares, 2, &runtime);
        let want = [0, 1, 4, -1, 16, 25].map(TaskResult::Fresh);
        assert_eq!(fresh.tasks, want, "a pool-level panic becomes a row");
        assert_eq!(fresh.truncated, 0);

        // Keep two records and add a malformed line: the two restore,
        // everything else re-runs.
        let lines = ["1 1", "bogus", "4 16"].map(String::from);
        snapshot::save(&dir, "squares", 7, &lines).unwrap();
        runtime.resume = true;
        let resumed = run_campaign(&Squares, 2, &runtime);
        let restored = [1, 4].map(|t| resumed.tasks[t].clone());
        assert_eq!(restored, [1, 16].map(TaskResult::Restored));
        assert_eq!(resumed.tasks[5], TaskResult::Fresh(25));
        let saved = snapshot::load_latest(&dir, "squares", 7).lines.unwrap();
        assert_eq!(saved, ["0 0", "1 1", "2 4", "3 -1", "4 16", "5 25"]);
        let status = std::fs::read_to_string(dir.join("status.json")).unwrap();
        assert!(status.contains("\"completed\": 6"), "{status}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn campaign_with_a_spent_budget_truncates_every_task() {
        let runtime = RuntimeOptions {
            budget_secs: Some(0),
            ..RuntimeOptions::default()
        };
        let run = run_campaign(&Squares, 2, &runtime);
        assert_eq!(run.truncated, 6);
        assert!(run.tasks.iter().all(|t| *t == TaskResult::Truncated));
    }
}
