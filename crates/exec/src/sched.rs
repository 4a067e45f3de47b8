//! The morsel-driven task scheduler: thousands of logical sessions on a
//! fixed pool of OS threads.
//!
//! The thread-per-stream [`WorkloadDriver`](crate::driver::WorkloadDriver)
//! capped scenario realism at tens of streams — one OS thread per session
//! does not survive contact with a server facing thousands of concurrent
//! query streams, which is exactly the regime the paper's buffer-management
//! policies were designed for. This module replaces it with cooperative
//! scheduling:
//!
//! * a **fixed worker pool** ([`ScanShareConfig::scheduler_workers`]
//!   threads) owns all query execution;
//! * each logical session is a [`Task`]: a resumable state machine whose
//!   [`Task::step`] runs one *quantum* of work and then yields. For queries
//!   the natural yield point is the [`ScanOperator`] batch boundary — the
//!   scan produces a bounded number of batches per quantum
//!   ([`BATCHES_PER_QUANTUM`]) and hands the worker back;
//! * all workers share **one FIFO run queue** under one mutex: a worker
//!   takes its front and parks on a condvar while it is empty, so an uneven
//!   session mix still saturates the pool;
//! * spawned and yielding tasks join the **back** of the queue, so sessions
//!   interleave round-robin: a short query never stalls behind a long scan
//!   (see the starvation test in `tests/scheduler_semantics.rs`).
//!
//! Scheduling never changes results: queries compute order-insensitive
//! aggregates over snapshot-pinned scans, so the same sessions produce
//! byte-identical per-session results at 1 worker and at N (the determinism
//! test relies on this). Panics are task-local — a panicking task completes
//! its handle with [`TaskOutcome::Panicked`] and the worker moves on, the
//! cooperative analogue of the driver's caught stream panics.
//!
//! The query state machine here is the engine's only query executor. It
//! runs a builder [`Query`]: the query's RID range is split into
//! `parallelism` parts (Equation 1) forming the *per-query task queue*;
//! each quantum produces batches from the front part, folds them into the
//! query's one sink and rotates the part to the back, so one session
//! interleaves its own partial scans exactly like the scheduler interleaves
//! sessions. [`QueryTask`] is its aggregating form, spawned on a
//! [`TaskScheduler`]; the blocking terminals ([`Query::run`],
//! [`Query::run_grouped`], [`Query::rows`]) drive the same machine with
//! their own sink to completion on the caller's thread, a panic mapped to a
//! typed error exactly as a scheduler worker maps it.
//!
//! [`ScanShareConfig::scheduler_workers`]: scanshare_common::ScanShareConfig::scheduler_workers
//! [`ScanOperator`]: crate::scan::ScanOperator

#![deny(missing_docs)]

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar};
use std::thread::JoinHandle;

use scanshare_common::sync::Mutex;
use scanshare_common::{Error, Result, TupleRange};
use scanshare_storage::datagen::Value;

use crate::ops::{AggrResult, BatchSource, JoinBuild, JoinTable, KeyedAggr, Sink};
use crate::query::Query;

/// How many scan batches a [`QueryTask`] produces per scheduler quantum
/// before yielding. With the operator's 1024-tuple batches this makes a
/// quantum a few thousand tuples: long enough to amortize queue traffic,
/// short enough that thousands of sessions interleave at millisecond
/// granularity.
pub const BATCHES_PER_QUANTUM: usize = 8;

/// What one [`Task::step`] quantum reports back to the scheduler.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TaskStep {
    /// The task has more work; requeue it at the back of the run queue.
    Yield,
    /// The task is finished; complete its handle.
    Done,
}

/// A cooperatively scheduled unit of work (one logical session, one query,
/// one serving-layer request, ...). `step` runs one bounded quantum; a task
/// that needs something unavailable right now (buffer space, a full
/// outbound queue) returns [`TaskStep::Yield`] and is retried after the
/// other queued tasks have had their turn.
pub trait Task: Send {
    /// Runs one quantum. Errors complete the task's handle with
    /// [`TaskOutcome::Failed`]; panics are caught and complete it with
    /// [`TaskOutcome::Panicked`].
    fn step(&mut self) -> Result<TaskStep>;
}

/// How a scheduled task ended.
#[derive(Debug)]
pub enum TaskOutcome<T> {
    /// The task ran to completion; the task value is handed back so the
    /// caller can extract its results.
    Finished(T),
    /// The task returned a typed error from one of its quanta (or was
    /// cancelled by scheduler shutdown before completing).
    Failed(Error),
    /// The task panicked mid-quantum; the panic was caught on the worker.
    Panicked(String),
}

impl<T> TaskOutcome<T> {
    /// Converts the outcome into a `Result`, mapping panics onto
    /// [`Error::Internal`].
    pub fn into_result(self) -> Result<T> {
        match self {
            TaskOutcome::Finished(task) => Ok(task),
            TaskOutcome::Failed(error) => Err(error),
            TaskOutcome::Panicked(message) => {
                Err(Error::internal(format!("task panicked: {message}")))
            }
        }
    }
}

/// Extracts a readable message from a caught panic payload (the `Err` of
/// [`std::panic::catch_unwind`]): the `&str` or `String` a `panic!` carries,
/// or a placeholder for any other payload type.
pub fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "task panicked with a non-string payload".to_string()
    }
}

/// Runs one quantum of the task in `slot` under `catch_unwind`. `None` if it
/// yielded (the task stays in `slot`); otherwise the task leaves `slot` and
/// the outcome says how it ended — a failed or panicked task is dropped
/// here, closing whatever it had open.
fn run_quantum<T: Task>(slot: &mut Option<T>) -> Option<TaskOutcome<T>> {
    let task = slot.as_mut().expect("task present until completion");
    let outcome = match catch_unwind(AssertUnwindSafe(|| task.step())) {
        Ok(Ok(TaskStep::Yield)) => return None,
        Ok(Ok(TaskStep::Done)) => return slot.take().map(TaskOutcome::Finished),
        Ok(Err(error)) => TaskOutcome::Failed(error),
        Err(payload) => TaskOutcome::Panicked(panic_message(payload)),
    };
    *slot = None;
    Some(outcome)
}

/// Drives `task` to [`TaskStep::Done`] on the caller's thread — how the
/// blocking query terminals run. Every quantum runs and maps its outcome
/// exactly as on a scheduler worker, so a panic below the task is an
/// [`Error::Internal`], never an unwind into the caller.
pub(crate) fn run_to_done<T: Task>(task: T) -> Result<T> {
    let mut slot = Some(task);
    loop {
        if let Some(outcome) = run_quantum(&mut slot) {
            return outcome.into_result();
        }
    }
}

/// Completion slot shared between a [`TaskHandle`] and the worker that
/// finishes the task.
struct HandleState<T> {
    slot: Mutex<Option<TaskOutcome<T>>>,
    done: Condvar,
}

impl<T> HandleState<T> {
    fn complete(&self, outcome: TaskOutcome<T>) {
        *self.slot.lock() = Some(outcome);
        self.done.notify_all();
    }
}

/// Waits for one spawned task; returned by [`TaskScheduler::spawn`].
/// Dropping the handle detaches the task — it still runs to completion,
/// its outcome is simply discarded (the serving layer does this: its tasks
/// deliver results over the wire themselves).
pub struct TaskHandle<T> {
    state: Arc<HandleState<T>>,
}

impl<T> TaskHandle<T> {
    /// Blocks until the task completes and returns its outcome.
    pub fn wait(self) -> TaskOutcome<T> {
        let mut guard = self.state.slot.lock();
        loop {
            if let Some(outcome) = guard.take() {
                return outcome;
            }
            guard = self.state.done.wait(guard).expect("condvar poisoned");
        }
    }

    /// Whether the task has already completed (non-blocking).
    pub fn is_done(&self) -> bool {
        self.state.slot.lock().is_some()
    }
}

impl<T> std::fmt::Debug for TaskHandle<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TaskHandle")
            .field("done", &self.is_done())
            .finish()
    }
}

/// What the worker does with a runnable after one quantum.
enum StepResult {
    Requeue,
    Complete,
}

/// Type-erased task + completion slot living on the run queue. The
/// `before_complete` callback runs just before the handle is signalled so
/// the scheduler's counters are consistent by the time a waiter wakes.
trait Runnable: Send {
    fn run_step(&mut self, before_complete: &dyn Fn()) -> StepResult;
    fn cancel(&mut self, error: Error, before_complete: &dyn Fn());
}

struct TypedRun<T: Task> {
    task: Option<T>,
    state: Arc<HandleState<T>>,
}

impl<T: Task> Runnable for TypedRun<T> {
    fn run_step(&mut self, before_complete: &dyn Fn()) -> StepResult {
        let Some(outcome) = run_quantum(&mut self.task) else {
            return StepResult::Requeue;
        };
        before_complete();
        self.state.complete(outcome);
        StepResult::Complete
    }

    fn cancel(&mut self, error: Error, before_complete: &dyn Fn()) {
        if self.task.take().is_some() {
            before_complete();
            self.state.complete(TaskOutcome::Failed(error));
        }
    }
}

/// Counters the scheduler accumulates over its lifetime; snapshot with
/// [`TaskScheduler::stats`]. Useful for benches (`fig_serving` reports
/// them) and for asserting scheduling behaviour in tests.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SchedulerStats {
    /// Tasks accepted by [`TaskScheduler::spawn`].
    pub submitted: u64,
    /// Tasks that completed (finished, failed or panicked).
    pub completed: u64,
    /// Quanta after which a task yielded and was requeued.
    pub yields: u64,
    /// Always 0: every worker takes from the one run queue, so no task is
    /// ever stolen. Kept because existing readers of the stats name it.
    pub steals: u64,
}

/// The state the one scheduler mutex guards.
#[derive(Default)]
struct RunQueue {
    /// Runnable tasks in FIFO order: spawned and yielding tasks join the
    /// back, a worker takes the front.
    runs: VecDeque<Box<dyn Runnable>>,
    /// Set by [`TaskScheduler::shutdown`]. Under the same lock as `runs`,
    /// so a spawn either queues its task before the shutdown (which then
    /// runs or cancels it) or sees the flag and refuses the task.
    shutdown: bool,
}

struct Shared {
    queue: Mutex<RunQueue>,
    /// Signalled once per spawn (one worker) and on shutdown (all).
    wake: Condvar,
    submitted: AtomicU64,
    completed: AtomicU64,
    yields: AtomicU64,
}

/// The fixed worker pool executing [`Task`]s; see the [module docs](self).
pub struct TaskScheduler {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for TaskScheduler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TaskScheduler")
            .field("workers", &self.workers.len())
            .field("stats", &self.stats())
            .finish()
    }
}

impl TaskScheduler {
    /// Starts a scheduler with `workers` OS threads (clamped to at least 1).
    pub fn new(workers: usize) -> Self {
        let shared = Arc::new(Shared {
            queue: Mutex::new(RunQueue::default()),
            wake: Condvar::new(),
            submitted: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            yields: AtomicU64::new(0),
        });
        let handles = (0..workers.max(1))
            .map(|me| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("sched-worker-{me}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn scheduler worker")
            })
            .collect();
        Self {
            shared,
            workers: handles,
        }
    }

    /// Submits a task; it starts running as soon as a worker frees up.
    /// After [`TaskScheduler::shutdown`] the task is not run — the returned
    /// handle completes immediately with [`TaskOutcome::Failed`].
    pub fn spawn<T: Task + 'static>(&self, task: T) -> TaskHandle<T> {
        spawn_on(&self.shared, task)
    }

    /// A cloneable spawning handle that stays valid after the scheduler is
    /// moved or borrowed elsewhere — tasks and callbacks (e.g. the serving
    /// layer's admission release) use it to submit follow-up work from any
    /// thread, including scheduler workers. Spawning through a handle after
    /// shutdown behaves like [`TaskScheduler::spawn`] after shutdown: the
    /// task fails immediately.
    pub fn handle(&self) -> SchedHandle {
        SchedHandle {
            shared: Arc::clone(&self.shared),
        }
    }

    /// A snapshot of the scheduler's lifetime counters.
    pub fn stats(&self) -> SchedulerStats {
        SchedulerStats {
            submitted: self.shared.submitted.load(Ordering::Relaxed),
            completed: self.shared.completed.load(Ordering::Relaxed),
            yields: self.shared.yields.load(Ordering::Relaxed),
            steals: 0,
        }
    }

    /// Stops the pool: workers finish the quantum they are on and exit,
    /// every task still queued (including tasks mid-flight that had
    /// yielded) completes its handle with [`TaskOutcome::Failed`], and the
    /// worker threads are joined. Idempotent; also invoked by `Drop`.
    pub fn shutdown(&mut self) {
        if std::mem::replace(&mut self.shared.queue.lock().shutdown, true) {
            return;
        }
        self.shared.wake.notify_all();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
        // Cancel outside the lock: dropping a task may spawn (and so be
        // refused) follow-up work.
        let cancelled = std::mem::take(&mut self.shared.queue.lock().runs);
        for mut run in cancelled {
            run.cancel(shutdown_error(), &|| {
                self.shared.completed.fetch_add(1, Ordering::Relaxed);
            });
        }
    }
}

impl Drop for TaskScheduler {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// See [`TaskScheduler::handle`].
#[derive(Clone)]
pub struct SchedHandle {
    shared: Arc<Shared>,
}

impl SchedHandle {
    /// Submits a task through the handle; see [`TaskScheduler::spawn`].
    pub fn spawn<T: Task + 'static>(&self, task: T) -> TaskHandle<T> {
        spawn_on(&self.shared, task)
    }
}

impl std::fmt::Debug for SchedHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SchedHandle").finish_non_exhaustive()
    }
}

fn spawn_on<T: Task + 'static>(shared: &Shared, task: T) -> TaskHandle<T> {
    let state = Arc::new(HandleState {
        slot: Mutex::new(None),
        done: Condvar::new(),
    });
    let handle = TaskHandle {
        state: Arc::clone(&state),
    };
    let mut run = TypedRun {
        task: Some(task),
        state,
    };
    let mut queue = shared.queue.lock();
    if queue.shutdown {
        drop(queue);
        run.cancel(shutdown_error(), &|| {});
        return handle;
    }
    shared.submitted.fetch_add(1, Ordering::Relaxed);
    queue.runs.push_back(Box::new(run));
    drop(queue);
    shared.wake.notify_one();
    handle
}

/// The typed error queued-but-never-run tasks fail with on shutdown.
fn shutdown_error() -> Error {
    Error::Unsupported("task scheduler shut down before the task completed".into())
}

/// Takes the front of the run queue, runs one quantum and, if the task
/// yielded, puts it at the back in the same lock acquisition that takes the
/// next one. Parks while the queue is empty; exits on shutdown, leaving a
/// yielded task queued for [`TaskScheduler::shutdown`] to cancel.
fn worker_loop(shared: &Shared) {
    let mut yielded = None;
    loop {
        let mut run = {
            let mut queue = shared.queue.lock();
            queue.runs.extend(yielded.take());
            loop {
                if queue.shutdown {
                    return;
                }
                if let Some(run) = queue.runs.pop_front() {
                    break run;
                }
                queue = shared.wake.wait(queue).expect("scheduler queue poisoned");
            }
        };
        let step = run.run_step(&|| {
            shared.completed.fetch_add(1, Ordering::Relaxed);
        });
        if let StepResult::Requeue = step {
            shared.yields.fetch_add(1, Ordering::Relaxed);
            yielded = Some(run);
        }
    }
}

// ---------------------------------------------------------------------------
// The query state machine
// ---------------------------------------------------------------------------

/// The deferred join-build phase of a [`Pipeline`]: the build scan is
/// drained cooperatively (at most [`BATCHES_PER_QUANTUM`] batches per
/// quantum); when it runs dry the hash table is frozen, the build scan is
/// dropped (unregistering it from the backend) and the probe scans open.
struct JoinPhase {
    scan: Box<dyn BatchSource + Send>,
    build: JoinBuild,
    /// The Equation-1 probe range parts still to open.
    parts: Vec<TupleRange>,
}

/// A validated builder [`Query`] as a resumable state machine feeding one
/// sink — the engine's only query executor (see the [module docs](self)).
///
/// The Equation-1 range parts form the query's own task queue. Each
/// [`Task::step`] produces up to [`BATCHES_PER_QUANTUM`] batches from the
/// front part, folds them into the sink, rotates the part to the back and
/// yields; every sink is a function of the row multiset, so the
/// interleaving never changes the result. A join plan first drains its build
/// scan through a `JoinPhase`, one quantum at a time, before the probe parts
/// open.
pub(crate) struct Pipeline<S> {
    /// The validated query, pin already resolved; opens the part scans.
    query: Query,
    /// `Some` while a join plan is still draining its build side.
    join: Option<JoinPhase>,
    /// The open partial scans, one per Equation-1 range part.
    parts: VecDeque<Box<dyn BatchSource + Send>>,
    /// The one sink every part feeds.
    pub(crate) sink: S,
}

impl<S: Sink> Pipeline<S> {
    /// Lowers the validated, pinned `query` over the range `parts` into
    /// `sink`. A plain plan opens (registers) every part's scan right away;
    /// a join plan opens only the build scan and defers the probe parts to
    /// the end of its `JoinPhase`, so the backend sees the build scan
    /// register, drain and unregister before any probe scan opens.
    pub(crate) fn new(query: Query, parts: Vec<TupleRange>, sink: S) -> Result<Self> {
        let mut pipeline = Self {
            join: None,
            parts: VecDeque::new(),
            sink,
            query,
        };
        match pipeline.query.open_join_build()? {
            Some((scan, build)) => pipeline.join = Some(JoinPhase { scan, build, parts }),
            None => pipeline.open_parts(parts, None)?,
        }
        Ok(pipeline)
    }

    fn open_parts(&mut self, parts: Vec<TupleRange>, table: Option<&Arc<JoinTable>>) -> Result<()> {
        for part in parts {
            self.parts.push_back(self.query.open_part(part, table)?);
        }
        Ok(())
    }
}

impl<S: Sink> Task for Pipeline<S> {
    fn step(&mut self) -> Result<TaskStep> {
        if let Some(phase) = self.join.as_mut() {
            for _ in 0..BATCHES_PER_QUANTUM {
                match phase.scan.next_batch()? {
                    Some(batch) => phase.build.push_batch(&batch),
                    None => {
                        // Build exhausted: unregister the build scan first
                        // (dropping its operator), then open the probes.
                        let phase = self.join.take().expect("checked above");
                        drop(phase.scan);
                        let table = Arc::new(phase.build.finish());
                        self.open_parts(phase.parts, Some(&table))?;
                        return Ok(TaskStep::Yield);
                    }
                }
            }
            return Ok(TaskStep::Yield);
        }
        let Some(mut part) = self.parts.pop_front() else {
            return Ok(TaskStep::Done);
        };
        let filter = self.query.downstream_filter();
        for _ in 0..BATCHES_PER_QUANTUM {
            match part.next_batch()? {
                Some(batch) => self.sink.fold(&batch, filter.as_ref()),
                None => {
                    // Part exhausted; drop its operator (unregistering the
                    // scan) before deciding whether the query is done.
                    return Ok(if self.parts.is_empty() {
                        TaskStep::Done
                    } else {
                        TaskStep::Yield
                    });
                }
            }
        }
        self.parts.push_back(part);
        Ok(TaskStep::Yield)
    }
}

/// A builder [`Query`] lowered onto the scheduler: the aggregating form of
/// the query state machine, the one [`Query::run`] drives on the caller's
/// thread. Obtain one with [`Query::into_task`], run it with
/// [`TaskScheduler::spawn`] (or step it from another task), and take the
/// result from the finished task with [`QueryTask::into_result`].
pub struct QueryTask(pub(crate) Pipeline<KeyedAggr<Value>>);

impl std::fmt::Debug for QueryTask {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QueryTask")
            .field("parts_remaining", &self.0.parts.len())
            .field("groups", &self.0.sink.groups.len())
            .finish()
    }
}

impl QueryTask {
    /// The aggregation accumulated so far (complete once the task has
    /// finished).
    pub fn result(&self) -> &AggrResult {
        &self.0.sink.groups
    }

    /// Consumes the finished task, returning the aggregation result.
    pub fn into_result(self) -> AggrResult {
        self.0.sink.groups
    }
}

impl Task for QueryTask {
    fn step(&mut self) -> Result<TaskStep> {
        self.0.step()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, AtomicUsize};

    /// Counts down `left` quanta, appending its label to `log` when done.
    struct CountTask {
        label: usize,
        left: usize,
        log: Arc<Mutex<Vec<usize>>>,
    }

    impl Task for CountTask {
        fn step(&mut self) -> Result<TaskStep> {
            if self.left == 0 {
                self.log.lock().push(self.label);
                return Ok(TaskStep::Done);
            }
            self.left -= 1;
            Ok(TaskStep::Yield)
        }
    }

    #[test]
    fn tasks_complete_at_any_worker_count() {
        for workers in [1usize, 4] {
            let sched = TaskScheduler::new(workers);
            let log = Arc::new(Mutex::new(Vec::new()));
            let handles: Vec<_> = (0..32)
                .map(|label| {
                    sched.spawn(CountTask {
                        label,
                        left: label % 5,
                        log: Arc::clone(&log),
                    })
                })
                .collect();
            for handle in handles {
                let outcome = handle.wait();
                assert!(matches!(outcome, TaskOutcome::Finished(_)), "{workers}");
            }
            assert_eq!(log.lock().len(), 32);
            let stats = sched.stats();
            assert_eq!(stats.submitted, 32);
            assert_eq!(stats.completed, 32);
        }
    }

    #[test]
    fn single_worker_round_robins_so_short_tasks_finish_first() {
        // The long task spins in its first quantum until both tasks are
        // spawned, so the single worker cannot burn through all 200 quanta
        // before the short task is even queued.
        struct GatedCount {
            start: Arc<AtomicBool>,
            inner: CountTask,
        }
        impl Task for GatedCount {
            fn step(&mut self) -> Result<TaskStep> {
                while !self.start.load(Ordering::SeqCst) {
                    std::thread::yield_now();
                }
                self.inner.step()
            }
        }
        let sched = TaskScheduler::new(1);
        let log = Arc::new(Mutex::new(Vec::new()));
        let start = Arc::new(AtomicBool::new(false));
        // The long task is submitted first and needs 200 quanta; the short
        // one needs 2. Round-robin admission and requeueing mean the short
        // task must complete long before the long one.
        let long = sched.spawn(GatedCount {
            start: Arc::clone(&start),
            inner: CountTask {
                label: 0,
                left: 200,
                log: Arc::clone(&log),
            },
        });
        let short = sched.spawn(CountTask {
            label: 1,
            left: 2,
            log: Arc::clone(&log),
        });
        start.store(true, Ordering::SeqCst);
        let _ = short.wait();
        let _ = long.wait();
        assert_eq!(*log.lock(), vec![1, 0], "short task completed first");
    }

    #[test]
    fn task_errors_and_panics_are_task_local() {
        struct FailTask;
        impl Task for FailTask {
            fn step(&mut self) -> Result<TaskStep> {
                Err(Error::internal("typed failure"))
            }
        }
        #[derive(Debug)]
        struct PanicTask;
        impl Task for PanicTask {
            fn step(&mut self) -> Result<TaskStep> {
                panic!("injected task panic");
            }
        }
        let sched = TaskScheduler::new(2);
        let log = Arc::new(Mutex::new(Vec::new()));
        let ok = sched.spawn(CountTask {
            label: 7,
            left: 10,
            log: Arc::clone(&log),
        });
        let failed = sched.spawn(FailTask);
        let panicked = sched.spawn(PanicTask);
        assert!(matches!(
            failed.wait(),
            TaskOutcome::Failed(Error::Internal(_))
        ));
        match panicked.wait() {
            TaskOutcome::Panicked(message) => assert!(message.contains("injected task panic")),
            other => panic!("expected a caught panic, got {other:?}"),
        }
        // The healthy task is unaffected by its neighbours' failures.
        assert!(matches!(ok.wait(), TaskOutcome::Finished(_)));
    }

    #[test]
    fn spawn_after_shutdown_fails_immediately() {
        let mut sched = TaskScheduler::new(1);
        sched.shutdown();
        let log = Arc::new(Mutex::new(Vec::new()));
        let handle = sched.spawn(CountTask {
            label: 0,
            left: 5,
            log,
        });
        assert!(handle.is_done());
        assert!(matches!(
            handle.wait(),
            TaskOutcome::Failed(Error::Unsupported(_))
        ));
    }

    #[test]
    fn shutdown_cancels_queued_tasks_with_a_typed_error() {
        // A task that parks its worker until released, so tasks behind it
        // are still queued when shutdown fires.
        struct GateTask {
            release: Arc<AtomicBool>,
            entered: Arc<AtomicUsize>,
        }
        impl Task for GateTask {
            fn step(&mut self) -> Result<TaskStep> {
                self.entered.fetch_add(1, Ordering::SeqCst);
                while !self.release.load(Ordering::SeqCst) {
                    std::thread::yield_now();
                }
                Ok(TaskStep::Done)
            }
        }
        let mut sched = TaskScheduler::new(1);
        let release = Arc::new(AtomicBool::new(false));
        let entered = Arc::new(AtomicUsize::new(0));
        let gate = sched.spawn(GateTask {
            release: Arc::clone(&release),
            entered: Arc::clone(&entered),
        });
        while entered.load(Ordering::SeqCst) == 0 {
            std::thread::yield_now();
        }
        let log = Arc::new(Mutex::new(Vec::new()));
        let queued = sched.spawn(CountTask {
            label: 0,
            left: 1,
            log,
        });
        // Release the gate as shutdown runs so the worker can finish its
        // current quantum; the queued task never runs.
        release.store(true, Ordering::SeqCst);
        sched.shutdown();
        assert!(matches!(gate.wait(), TaskOutcome::Finished(_)));
        assert!(matches!(
            queued.wait(),
            TaskOutcome::Failed(Error::Unsupported(_))
        ));
    }

    #[test]
    fn outcome_into_result_maps_variants() {
        assert!(TaskOutcome::Finished(1u8).into_result().is_ok());
        assert!(matches!(
            TaskOutcome::<u8>::Failed(Error::internal("x")).into_result(),
            Err(Error::Internal(_))
        ));
        assert!(matches!(
            TaskOutcome::<u8>::Panicked("boom".into()).into_result(),
            Err(Error::Internal(_))
        ));
    }

    #[test]
    fn many_yielding_tasks_finish_on_four_workers() {
        // 4 workers x 64 yieldy tasks: every task must complete and the
        // yield counter must reflect the requeues.
        let sched = TaskScheduler::new(4);
        let log = Arc::new(Mutex::new(Vec::new()));
        let handles: Vec<_> = (0..64)
            .map(|label| {
                sched.spawn(CountTask {
                    label,
                    left: 20,
                    log: Arc::clone(&log),
                })
            })
            .collect();
        for handle in handles {
            assert!(matches!(handle.wait(), TaskOutcome::Finished(_)));
        }
        let stats = sched.stats();
        assert_eq!(stats.completed, 64);
        assert_eq!(stats.yields, 64 * 20);
    }

    #[test]
    fn spawns_racing_a_shutdown_are_run_cancelled_or_refused() {
        // Each spawn either queues its task before the shutdown, which then
        // runs or cancels it, or is refused; a task pushed after the
        // shutdown drained the queue would leave a handle that never
        // completes.
        struct OneQuantum;
        impl Task for OneQuantum {
            fn step(&mut self) -> Result<TaskStep> {
                Ok(TaskStep::Done)
            }
        }
        let mut sched = TaskScheduler::new(2);
        let start = Arc::new(std::sync::Barrier::new(5));
        let (handles_tx, handles_rx) = std::sync::mpsc::channel();
        let spawners: Vec<_> = (0..4)
            .map(|_| {
                let sched = sched.handle();
                let start = Arc::clone(&start);
                let handles_tx = handles_tx.clone();
                std::thread::spawn(move || {
                    start.wait();
                    for _ in 0..500 {
                        handles_tx
                            .send(sched.spawn(OneQuantum))
                            .expect("waiter alive");
                    }
                })
            })
            .collect();
        drop(handles_tx);
        // Wait on a helper thread so that a lost task fails the test below
        // instead of hanging the suite.
        let (verdict_tx, verdict_rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let outcomes: Vec<_> = handles_rx.into_iter().map(TaskHandle::wait).collect();
            let all_ended = outcomes
                .iter()
                .all(|o| matches!(o, TaskOutcome::Finished(_) | TaskOutcome::Failed(_)));
            let _ = verdict_tx.send((outcomes.len(), all_ended));
        });
        start.wait();
        sched.shutdown();
        for spawner in spawners {
            spawner.join().expect("spawner panicked");
        }
        let stats = sched.stats();
        assert_eq!(stats.completed, stats.submitted);
        let (waited, all_ended) = verdict_rx
            .recv_timeout(std::time::Duration::from_secs(30))
            .expect("a spawned task's handle never completed");
        assert_eq!(waited, 4 * 500);
        assert!(all_ended, "every handle ends Finished or Failed");
    }
}
