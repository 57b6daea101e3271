//! The sharded work-stealing executor behind every parallel stage of the round pipeline.
//!
//! The first pooled engine (PR 1) was a single `Mutex<Receiver<Job>>` that every worker
//! contended on, fed one `Box`ed job at a time, with results funnelled back through a
//! per-call `(usize, T)` channel. Correct, but it serialised exactly the part that was
//! supposed to scale: a 512-task fan-out was 512 locked sends on the way in and 512 locked
//! receives on the way out, and the queue lock was the hottest line in the profile.
//!
//! This module replaces that substrate while keeping the public surface
//! ([`WorkerPool::new`], [`WorkerPool::run_indexed`], [`WorkerPool::threads`]) byte-for-byte
//! compatible, so `RoundEngine`, the trainer, the MEC cluster, `ScenarioRunner::map`, and
//! the streamed auction stage all inherit the win without changing a line:
//!
//! * **Chunked batch submission.** A fan-out of `n` tasks is published as
//!   `O(width)` contiguous *range units* (one injector lock for the whole batch), not `n`
//!   queued closures. The tasks themselves live in a single shared [`FanOut`] slab.
//! * **Per-worker deques + a global injector.** Each worker owns a deque of range units.
//!   Executing a unit wider than the steal granularity first splits it — the upper half is
//!   pushed onto the owner's deque where idle workers steal it from the opposite end — so
//!   imbalance self-corrects at `O(log n)` deque operations instead of per-task handoffs.
//! * **Reusable result slots.** Every task writes its result into its own pre-sized slot in
//!   the [`FanOut`] slab (disjoint ranges, so no synchronisation per write); the submitter
//!   wakes once on a completion latch instead of draining a channel `n` times.
//! * **Per-slot panic markers.** A panicking task records [`JobPanic`] in its slot rather
//!   than silently vanishing; [`WorkerPool::run_indexed_checked`] surfaces every slot's
//!   fate, and [`WorkerPool::run_indexed`] re-raises the first panic with its slot index.
//!   Workers themselves never die — the pool keeps full capacity across poisoned waves.
//!
//! **Determinism contract.** Results are identified by submission index and written to
//! disjoint slots, so the output order — and therefore everything downstream, from FedAvg
//! to the golden figure fingerprints — is a pure function of the submitted tasks. Worker
//! count, steal order, and split depth are wall-clock knobs only; the determinism suite
//! pins bit-identical histories across widths 1/2/8 under active stealing.

use std::cell::{Cell, UnsafeCell};
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::Duration;

/// A unit of work returning a value; see [`crate::engine::RoundEngine::run_tasks`].
pub type Task<T> = Box<dyn FnOnce() -> T + Send + 'static>;

thread_local! {
    /// Set while the current thread is a pool worker, so nested fan-outs (an experiment sweep
    /// whose tasks themselves train in parallel) degrade to inline execution instead of
    /// deadlocking on a saturated pool.
    static IN_POOL_WORKER: Cell<bool> = const { Cell::new(false) };
}

/// Whether the calling thread is a pool worker (nested fan-outs run inline).
pub(crate) fn in_pool_worker() -> bool {
    IN_POOL_WORKER.with(|flag| flag.get())
}

/// Number of workers used when a pool is created with `threads = 0`.
pub fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map_or(4, |n| n.get())
        .clamp(1, 8)
}

/// Locks a mutex, recovering the guard if a previous holder panicked (workers catch task
/// panics before touching any queue lock, so poisoning is already impossible by
/// construction — this just keeps the pool unkillable even if that invariant slips).
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// The fate marker of one fan-out slot whose task panicked: callers of
/// [`WorkerPool::run_indexed_checked`] can tell "this worker's job died" apart from "this
/// job produced an empty result", per slot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobPanic {
    /// Submission index of the panicked task.
    pub slot: usize,
    /// Rendered panic payload (`&str` / `String` payloads verbatim, a placeholder
    /// otherwise).
    pub message: String,
}

impl std::fmt::Display for JobPanic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "pooled task in slot {} panicked: {}",
            self.slot, self.message
        )
    }
}

pub(crate) fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

// ---------------------------------------------------------------------------
// The fan-out slab: tasks and result slots of one `run_indexed` call.
// ---------------------------------------------------------------------------

/// One task/result slot pair. The `UnsafeCell`s are raced-free by construction: every slot
/// index belongs to exactly one range unit (ranges are disjoint under splitting), and the
/// submitter only reads after the completion latch — which the last writer sets — has
/// flipped.
struct FanCell<T> {
    task: UnsafeCell<Option<Task<T>>>,
    result: UnsafeCell<Option<Result<T, String>>>,
}

/// The shared slab of one indexed fan-out: pre-sized task and result slots, the steal
/// granularity, a remaining-task latch, and the condvar the submitter parks on.
struct FanOut<T> {
    cells: Vec<FanCell<T>>,
    split_len: usize,
    remaining: AtomicUsize,
    done: Mutex<bool>,
    done_cv: Condvar,
}

// SAFETY: slots are only touched by the worker owning the (disjoint) range that contains
// them, and by the submitter after the `done` latch synchronises with the last writer.
unsafe impl<T: Send> Sync for FanOut<T> {}

impl<T: Send + 'static> FanOut<T> {
    fn new(tasks: Vec<Task<T>>, split_len: usize) -> Self {
        let cells = tasks
            .into_iter()
            .map(|task| FanCell {
                task: UnsafeCell::new(Some(task)),
                result: UnsafeCell::new(None),
            })
            .collect::<Vec<_>>();
        let remaining = AtomicUsize::new(cells.len());
        Self {
            cells,
            split_len,
            remaining,
            done: Mutex::new(false),
            done_cv: Condvar::new(),
        }
    }

    /// Blocks the submitter until every slot has been written.
    fn wait_done(&self) {
        let mut done = lock(&self.done);
        while !*done {
            done = self
                .done_cv
                .wait(done)
                .unwrap_or_else(|poisoned| poisoned.into_inner());
        }
    }

    /// Drains the result slots in submission order. Only called by the submitter after
    /// [`FanOut::wait_done`], which synchronises with every writer.
    fn take_results(&self) -> Vec<Result<T, JobPanic>> {
        self.cells
            .iter()
            .enumerate()
            .map(|(slot, cell)| {
                // SAFETY: all writers finished (done latch) and the submitter is the only
                // reader.
                let written = unsafe { &mut *cell.result.get() };
                written
                    .take()
                    .expect("every slot written exactly once")
                    .map_err(|message| JobPanic { slot, message })
            })
            .collect()
    }
}

/// Type-erased execution of one contiguous slot range; implemented by [`FanOut`] per result
/// type so the worker queues hold a single unit shape.
trait RangeRunner: Send + Sync {
    fn run_range(&self, lo: usize, hi: usize);
    fn split_len(&self) -> usize;
}

impl<T: Send + 'static> RangeRunner for FanOut<T> {
    fn run_range(&self, lo: usize, hi: usize) {
        for i in lo..hi {
            // SAFETY: this range owns slots [lo, hi) exclusively.
            let task = unsafe { &mut *self.cells[i].task.get() }
                .take()
                .expect("each task claimed exactly once");
            let outcome = catch_unwind(AssertUnwindSafe(task)).map_err(panic_message);
            // SAFETY: as above; the slot's writer is this call alone.
            unsafe { *self.cells[i].result.get() = Some(outcome) };
        }
        let ran = hi - lo;
        // AcqRel: the last decrement observes every earlier writer's release, so flipping
        // the latch publishes all result slots to the submitter.
        if self.remaining.fetch_sub(ran, Ordering::AcqRel) == ran {
            let mut done = lock(&self.done);
            *done = true;
            self.done_cv.notify_all();
        }
    }

    fn split_len(&self) -> usize {
        self.split_len
    }
}

/// One stealable range of a fan-out.
struct WorkUnit {
    runner: Arc<dyn RangeRunner>,
    lo: usize,
    hi: usize,
}

// ---------------------------------------------------------------------------
// The pool: per-worker deques, a global injector, and the sleep protocol.
// ---------------------------------------------------------------------------

struct PoolShared {
    /// Per-worker stealable deques: the owner pushes/pops at the back, thieves take from
    /// the front — opposite ends, so a busy owner and its thieves rarely collide.
    locals: Vec<Mutex<VecDeque<WorkUnit>>>,
    /// Where fresh batches land; workers drain it FIFO so earlier fan-outs finish first.
    injector: Mutex<VecDeque<WorkUnit>>,
    /// Parked workers wait here (paired with the injector mutex).
    work_cv: Condvar,
    /// Queued units across the injector and all local deques. Incremented *before* the
    /// matching push, so a successful pop never underflows the counter.
    queued: AtomicUsize,
    /// Workers currently parked on `work_cv`; lets pushers skip the notify lock when
    /// everyone is already busy.
    sleepers: AtomicUsize,
    live: AtomicBool,
    /// Belt-and-braces park interval: how long a worker sleeps before re-checking for work
    /// it was never notified about (see [`PoolShared::park`]).
    park_timeout: Duration,
    /// How many parks expired without a notification *and* without queued work — each one
    /// is a wakeup the Dekker handshake says should never be needed, so a growing count
    /// under load is the stall signature this diagnostic exists to surface.
    stall_wakeups: AtomicUsize,
}

impl PoolShared {
    /// Publishes one unit from a worker thread and wakes a sleeper if there is one.
    ///
    /// The counter/flag ordering forms the classic Dekker handshake with
    /// [`PoolShared::park`]: the pusher writes `queued` then reads `sleepers`; the parking
    /// worker writes `sleepers` then re-reads `queued`. Under `SeqCst` at least one side
    /// sees the other, so a unit can never be published into a pool where every worker
    /// sleeps through it.
    fn push_local(&self, worker: usize, unit: WorkUnit) {
        self.queued.fetch_add(1, Ordering::SeqCst);
        lock(&self.locals[worker]).push_back(unit);
        if self.sleepers.load(Ordering::SeqCst) > 0 {
            let _guard = lock(&self.injector);
            self.work_cv.notify_one();
        }
    }

    /// Pops the next unit: own deque first (LIFO — cache-warm halves of the unit this
    /// worker just split), then the injector (FIFO), then a steal sweep over the other
    /// workers' deques (FIFO end — the oldest, largest ranges).
    fn find_unit(&self, me: usize) -> Option<WorkUnit> {
        if let Some(unit) = lock(&self.locals[me]).pop_back() {
            self.queued.fetch_sub(1, Ordering::SeqCst);
            return Some(unit);
        }
        if let Some(unit) = lock(&self.injector).pop_front() {
            self.queued.fetch_sub(1, Ordering::SeqCst);
            return Some(unit);
        }
        let n = self.locals.len();
        for offset in 1..n {
            let victim = (me + offset) % n;
            if let Some(unit) = lock(&self.locals[victim]).pop_front() {
                self.queued.fetch_sub(1, Ordering::SeqCst);
                return Some(unit);
            }
        }
        None
    }

    /// Parks the calling worker until work or shutdown arrives. Returns `false` when the
    /// worker should exit.
    fn park(&self) -> bool {
        let guard = lock(&self.injector);
        self.sleepers.fetch_add(1, Ordering::SeqCst);
        // Dekker partner of `push_local`: re-check after announcing the sleep.
        if self.queued.load(Ordering::SeqCst) > 0 {
            self.sleepers.fetch_sub(1, Ordering::SeqCst);
            return true;
        }
        if !self.live.load(Ordering::SeqCst) {
            self.sleepers.fetch_sub(1, Ordering::SeqCst);
            return false;
        }
        // The timeout is a belt-and-braces liveness net only; the handshake above is what
        // correctness rests on. The default interval is long enough that an idle
        // process-wide pool costs essentially nothing in background wakeups.
        let (_guard, timeout) = self
            .work_cv
            .wait_timeout(guard, self.park_timeout)
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        if timeout.timed_out()
            && self.queued.load(Ordering::SeqCst) == 0
            && self.live.load(Ordering::SeqCst)
        {
            // Expired with nothing to do and no shutdown: a silent stall wakeup. Counted
            // instead of swallowed, so a wedged submitter shows up in diagnostics.
            self.stall_wakeups.fetch_add(1, Ordering::Relaxed);
        }
        self.sleepers.fetch_sub(1, Ordering::SeqCst);
        true
    }

    /// Runs one unit, eagerly splitting ranges wider than the steal granularity so idle
    /// workers always have something to take.
    fn execute(&self, me: usize, mut unit: WorkUnit) {
        let min = unit.runner.split_len().max(1);
        while unit.hi - unit.lo > min {
            let mid = unit.lo + (unit.hi - unit.lo) / 2;
            self.push_local(
                me,
                WorkUnit {
                    runner: Arc::clone(&unit.runner),
                    lo: mid,
                    hi: unit.hi,
                },
            );
            unit.hi = mid;
        }
        unit.runner.run_range(unit.lo, unit.hi);
    }

    /// Publishes one unit from an external (non-worker) thread — the helping submitter has
    /// no local deque, so split halves land in the injector — and wakes a sleeper if there
    /// is one. Same Dekker handshake as [`PoolShared::push_local`].
    fn push_injector(&self, unit: WorkUnit) {
        self.queued.fetch_add(1, Ordering::SeqCst);
        let mut injector = lock(&self.injector);
        injector.push_back(unit);
        if self.sleepers.load(Ordering::SeqCst) > 0 {
            self.work_cv.notify_one();
        }
    }

    /// Pops the next unit for an external thread: the injector first (FIFO — the oldest
    /// fan-outs), then a steal sweep over every worker's deque.
    fn find_unit_external(&self) -> Option<WorkUnit> {
        if let Some(unit) = lock(&self.injector).pop_front() {
            self.queued.fetch_sub(1, Ordering::SeqCst);
            return Some(unit);
        }
        for victim in &self.locals {
            if let Some(unit) = lock(victim).pop_front() {
                self.queued.fetch_sub(1, Ordering::SeqCst);
                return Some(unit);
            }
        }
        None
    }

    /// Runs one unit on an external thread, splitting wide ranges into the injector. The
    /// worker flag is set for the duration of the borrowed task so a nested fan-out inside
    /// it degrades to inline execution, exactly as it would on a real worker.
    fn execute_external(&self, mut unit: WorkUnit) {
        let min = unit.runner.split_len().max(1);
        while unit.hi - unit.lo > min {
            let mid = unit.lo + (unit.hi - unit.lo) / 2;
            self.push_injector(WorkUnit {
                runner: Arc::clone(&unit.runner),
                lo: mid,
                hi: unit.hi,
            });
            unit.hi = mid;
        }
        let was_worker = IN_POOL_WORKER.with(|flag| flag.replace(true));
        unit.runner.run_range(unit.lo, unit.hi);
        IN_POOL_WORKER.with(|flag| flag.set(was_worker));
    }
}

fn worker_loop(shared: Arc<PoolShared>, me: usize) {
    IN_POOL_WORKER.with(|flag| flag.set(true));
    loop {
        match shared.find_unit(me) {
            Some(unit) => shared.execute(me, unit),
            None => {
                if !shared.park() {
                    break;
                }
            }
        }
    }
}

/// A persistent pool of work-stealing worker threads with slot-indexed, order-preserving
/// result collection. See the module docs for the execution discipline; the public
/// contract is unchanged from the channel-based pool it replaces.
pub struct WorkerPool {
    shared: Arc<PoolShared>,
    workers: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("threads", &self.workers.len())
            .finish()
    }
}

/// Default belt-and-braces park interval of [`WorkerPool::new`].
pub const DEFAULT_PARK_TIMEOUT: Duration = Duration::from_secs(2);

impl WorkerPool {
    /// Spawns a pool with `threads` workers (`0` means [`default_threads`]) parking at
    /// [`DEFAULT_PARK_TIMEOUT`].
    pub fn new(threads: usize) -> Self {
        Self::with_park_timeout(threads, DEFAULT_PARK_TIMEOUT)
    }

    /// Spawns a pool whose idle workers re-check for missed work every `park_timeout`
    /// instead of the default two seconds. Shorter intervals surface stalls faster in
    /// [`WorkerPool::stall_wakeups`] at the cost of more idle wakeups; the results of any
    /// fan-out are identical either way.
    pub fn with_park_timeout(threads: usize, park_timeout: Duration) -> Self {
        let threads = if threads == 0 {
            default_threads()
        } else {
            threads
        };
        let shared = Arc::new(PoolShared {
            locals: (0..threads).map(|_| Mutex::new(VecDeque::new())).collect(),
            injector: Mutex::new(VecDeque::new()),
            work_cv: Condvar::new(),
            queued: AtomicUsize::new(0),
            sleepers: AtomicUsize::new(0),
            live: AtomicBool::new(true),
            park_timeout: park_timeout.max(Duration::from_millis(1)),
            stall_wakeups: AtomicUsize::new(0),
        });
        let workers = (0..threads)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("fmore-pool-{i}"))
                    .spawn(move || worker_loop(shared, i))
                    .expect("failed to spawn worker thread")
            })
            .collect();
        Self { shared, workers }
    }

    /// Number of worker threads.
    pub fn threads(&self) -> usize {
        self.workers.len()
    }

    /// How many worker parks have expired without a notification or queued work since the
    /// pool was built. On a healthy pool this stays near zero under load (workers are
    /// notified, not timed out); it climbs at `threads / park_timeout` per second while
    /// the pool sits idle or a submitter is wedged — a cheap, always-on stall diagnostic
    /// that used to be swallowed silently.
    pub fn stall_wakeups(&self) -> usize {
        self.shared.stall_wakeups.load(Ordering::Relaxed)
    }

    /// Runs every task on the pool and returns each slot's fate **in submission order**:
    /// `Ok` with the task's value, or [`JobPanic`] when that task panicked. Panics never
    /// kill workers (the pool keeps full capacity) and never mask sibling results —
    /// every healthy slot still delivers.
    ///
    /// When called from inside a pool worker (a nested fan-out) the tasks run inline on
    /// the calling thread, which keeps the pool deadlock-free.
    pub fn run_indexed_checked<T: Send + 'static>(
        &self,
        tasks: Vec<Task<T>>,
    ) -> Vec<Result<T, JobPanic>> {
        let n = tasks.len();
        if n <= 1 || in_pool_worker() {
            return tasks
                .into_iter()
                .enumerate()
                .map(|(slot, task)| {
                    catch_unwind(AssertUnwindSafe(task)).map_err(|payload| JobPanic {
                        slot,
                        message: panic_message(payload),
                    })
                })
                .collect();
        }
        let width = self.threads();
        // O(width) contiguous batches regardless of n; stealing splits them down to a
        // granularity that keeps every worker fed without descending to per-task handoffs.
        let chunk = n.div_ceil(width).max(1);
        let split_len = n.div_ceil(width * 8).max(1);
        let fan = Arc::new(FanOut::new(tasks, split_len));
        let runner: Arc<dyn RangeRunner> = Arc::clone(&fan) as Arc<dyn RangeRunner>;
        {
            let mut injector = lock(&self.shared.injector);
            let mut lo = 0;
            let mut units = 0usize;
            while lo < n {
                let hi = (lo + chunk).min(n);
                injector.push_back(WorkUnit {
                    runner: Arc::clone(&runner),
                    lo,
                    hi,
                });
                units += 1;
                lo = hi;
            }
            self.shared.queued.fetch_add(units, Ordering::SeqCst);
            self.shared.work_cv.notify_all();
        }
        // The submitter helps instead of parking: while its fan-out has outstanding slots
        // it executes queued units like any worker would (its own units — or, work-
        // conserving, an earlier fan-out's). On width-1 pools and single-core boxes this
        // is what makes a pooled round cost one running thread instead of a worker plus a
        // dead submitter; on wider pools it adds a thread to every wave. Only when the
        // queues drain while stragglers still run does it fall back to the latch.
        while fan.remaining.load(Ordering::Acquire) > 0 {
            match self.shared.find_unit_external() {
                Some(unit) => self.shared.execute_external(unit),
                None => break,
            }
        }
        fan.wait_done();
        fan.take_results()
    }

    /// Runs every task on the pool and returns the results **in submission order**.
    ///
    /// Results are written into pre-sized slots keyed by submission index, so the output
    /// order is independent of completion order — determinism by construction rather than
    /// by an after-the-fact sort. When called from inside a pool worker (a nested fan-out)
    /// the tasks run inline on the calling thread, which keeps the pool deadlock-free.
    ///
    /// This re-raising wrapper exists for batch drivers that own the whole process (sweep
    /// examples, the benchmark). Service-facing paths never call it: every round-pipeline
    /// fan-out goes through [`WorkerPool::run_indexed_checked`] (via
    /// `RoundEngine::try_run_tasks`), where a panic becomes a typed error on the
    /// submitting job's round instead of an abort.
    ///
    /// # Panics
    ///
    /// Panics if a task panics, naming the first panicked slot; use
    /// [`WorkerPool::run_indexed_checked`] to observe per-slot fates instead.
    pub fn run_indexed<T: Send + 'static>(&self, tasks: Vec<Task<T>>) -> Vec<T> {
        self.run_indexed_checked(tasks)
            .into_iter()
            .map(|slot| match slot {
                Ok(value) => value,
                Err(marker) => panic!("{marker}"),
            })
            .collect()
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        self.shared.live.store(false, Ordering::SeqCst);
        {
            let _guard = lock(&self.shared.injector);
            self.shared.work_cv.notify_all();
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checked_run_reports_per_slot_panic_markers() {
        let pool = WorkerPool::new(3);
        let mut tasks: Vec<Task<usize>> = (0..64usize)
            .map(|i| Box::new(move || i * 2) as Task<usize>)
            .collect();
        tasks[10] = Box::new(|| panic!("slot ten died"));
        tasks[40] = Box::new(|| panic!("slot forty died"));
        let results = pool.run_indexed_checked(tasks);
        assert_eq!(results.len(), 64);
        for (i, result) in results.iter().enumerate() {
            match (i, result) {
                (10, Err(marker)) => {
                    assert_eq!(marker.slot, 10);
                    assert_eq!(marker.message, "slot ten died");
                }
                (40, Err(marker)) => {
                    assert_eq!(marker.slot, 40);
                    assert!(marker.to_string().contains("slot 40"));
                }
                (_, Ok(value)) => assert_eq!(*value, i * 2),
                (_, Err(marker)) => panic!("unexpected marker in slot {i}: {marker}"),
            }
        }
        // The pool is at full strength afterwards: a clean wave delivers everything.
        let clean: Vec<Task<usize>> = (0..128usize)
            .map(|i| Box::new(move || i + 1) as Task<usize>)
            .collect();
        let ok: Vec<usize> = pool
            .run_indexed_checked(clean)
            .into_iter()
            .map(|r| r.expect("clean wave has no panics"))
            .collect();
        assert_eq!(ok, (1..=128).collect::<Vec<_>>());
    }

    #[test]
    fn checked_run_covers_the_inline_paths_too() {
        let pool = WorkerPool::new(2);
        // Single-task fan-outs run inline but still produce markers.
        let one: Vec<Task<u8>> = vec![Box::new(|| panic!("lone task"))];
        let results = pool.run_indexed_checked(one);
        assert_eq!(results.len(), 1);
        assert_eq!(results[0].as_ref().unwrap_err().message, "lone task");
        // Nested fan-outs (from a worker thread) degrade to inline and keep markers.
        let outer: Vec<Task<Vec<Result<usize, JobPanic>>>> = (0..2usize)
            .map(|_| {
                let inner_pool = WorkerPool::new(1);
                Box::new(move || {
                    let mut inner: Vec<Task<usize>> = (0..4usize)
                        .map(|j| Box::new(move || j) as Task<usize>)
                        .collect();
                    inner[2] = Box::new(|| panic!("nested"));
                    inner_pool.run_indexed_checked(inner)
                }) as Task<Vec<Result<usize, JobPanic>>>
            })
            .collect();
        for row in pool.run_indexed(outer) {
            assert_eq!(row[2].as_ref().unwrap_err().slot, 2);
            assert_eq!(row[3], Ok(3));
        }
    }

    #[test]
    fn unchecked_run_panics_with_the_slot_index() {
        let pool = WorkerPool::new(2);
        let mut tasks: Vec<Task<usize>> = (0..32usize)
            .map(|i| Box::new(move || i) as Task<usize>)
            .collect();
        tasks[7] = Box::new(|| panic!("kaboom"));
        let err = catch_unwind(AssertUnwindSafe(|| pool.run_indexed(tasks)))
            .expect_err("the panic must reach the submitter");
        let message = panic_message(err);
        assert!(message.contains("slot 7"), "got: {message}");
        assert!(message.contains("kaboom"), "got: {message}");
    }

    #[test]
    fn stealing_preserves_submission_order_under_skew() {
        let pool = WorkerPool::new(4);
        // Heavily skewed costs: the first chunk is orders of magnitude slower, so the
        // other workers must steal from it for the wave to balance at all.
        let tasks: Vec<Task<usize>> = (0..256usize)
            .map(|i| {
                Box::new(move || {
                    if i < 32 {
                        std::thread::sleep(Duration::from_micros(300));
                    }
                    i
                }) as Task<usize>
            })
            .collect();
        assert_eq!(pool.run_indexed(tasks), (0..256).collect::<Vec<_>>());
    }

    #[test]
    fn submitter_executes_units_while_every_worker_is_blocked() {
        // Saturate a width-1 pool: fan A's two tasks block on channels, occupying the
        // lone worker *and* A's helping submitter. Fan B then has no worker left — it
        // completes only because B's submitter executes the queued units itself. Before
        // submitter helping this test would hang on B's completion latch.
        let pool = Arc::new(WorkerPool::new(1));
        let (tx_a, rx_a) = std::sync::mpsc::channel::<()>();
        let (tx_b, rx_b) = std::sync::mpsc::channel::<()>();
        let started = Arc::new(AtomicUsize::new(0));
        let blocker_pool = Arc::clone(&pool);
        let (s_a, s_b) = (Arc::clone(&started), Arc::clone(&started));
        let blocker = std::thread::spawn(move || {
            let tasks: Vec<Task<()>> = vec![
                Box::new(move || {
                    s_a.fetch_add(1, Ordering::SeqCst);
                    rx_a.recv().unwrap();
                }),
                Box::new(move || {
                    s_b.fetch_add(1, Ordering::SeqCst);
                    rx_b.recv().unwrap();
                }),
            ];
            blocker_pool.run_indexed(tasks)
        });
        // Wait until both blocking tasks have been claimed and are running.
        while started.load(Ordering::SeqCst) < 2 {
            std::thread::yield_now();
        }
        let me = std::thread::current().id();
        let tasks: Vec<Task<std::thread::ThreadId>> = (0..16)
            .map(|_| Box::new(|| std::thread::current().id()) as Task<std::thread::ThreadId>)
            .collect();
        let ran_on = pool.run_indexed(tasks);
        assert!(ran_on.iter().all(|id| *id == me));
        tx_a.send(()).unwrap();
        tx_b.send(()).unwrap();
        blocker.join().unwrap();
    }

    #[test]
    fn tiny_fanouts_and_empty_batches_are_fine() {
        let pool = WorkerPool::new(4);
        assert!(pool.run_indexed(Vec::<Task<u8>>::new()).is_empty());
        let two: Vec<Task<usize>> = (0..2usize)
            .map(|i| Box::new(move || i) as Task<usize>)
            .collect();
        assert_eq!(pool.run_indexed(two), vec![0, 1]);
    }

    #[test]
    fn stall_wakeups_are_counted_and_the_interval_is_configurable() {
        // A freshly built pool at the default two-second interval reports no stalls.
        let pool = WorkerPool::new(2);
        assert_eq!(pool.stall_wakeups(), 0);

        // At a short interval, idle workers accumulate counted stall wakeups quickly...
        let pool = WorkerPool::with_park_timeout(2, Duration::from_millis(20));
        std::thread::sleep(Duration::from_millis(150));
        assert!(
            pool.stall_wakeups() >= 1,
            "idle workers at a 20ms park interval must register stall wakeups"
        );
        // ...and the pool still executes fan-outs normally afterwards.
        let tasks: Vec<Task<usize>> = (0..64usize)
            .map(|i| Box::new(move || i * 3) as Task<usize>)
            .collect();
        assert_eq!(
            pool.run_indexed(tasks),
            (0..64).map(|i| i * 3).collect::<Vec<_>>()
        );
    }
}
