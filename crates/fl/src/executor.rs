//! The worker pool behind every parallel stage of the round pipeline: one FIFO queue of
//! chunks under one mutex, drained by the workers and by the submitting thread.
//!
//! * **Chunked submission.** [`WorkerPool::run_indexed_checked`] cuts a fan-out of `n`
//!   tasks into a few contiguous chunks (two per participating thread, the submitter
//!   counted) and pushes them under one lock, waking one sleeping worker per chunk beyond
//!   the first.
//! * **The submitter helps.** Instead of parking, the submitting thread pops and runs
//!   queued chunks — its own, or an earlier fan-out's — until its fan-out is done; only when
//!   the queue is empty while other threads still run its chunks does it wait. On a
//!   one-worker pool this is what makes a pooled round cost one running thread rather than
//!   a worker plus an idle submitter, and a fan-out completes even while every worker is
//!   blocked.
//! * **Slot-indexed results.** Each chunk runs its tasks, then writes their outcomes into
//!   the fan-out's slot vector under one lock; the submitter reads the slots once the last
//!   chunk has written.
//! * **Per-slot panic markers.** A panicking task records [`JobPanic`] in its slot rather
//!   than silently vanishing; [`WorkerPool::run_indexed_checked`] surfaces every slot's
//!   fate, and [`WorkerPool::run_indexed`] re-raises the first panic with its slot index.
//!   Workers themselves never die — the pool keeps full capacity across poisoned waves.
//!
//! **Determinism contract.** Results are identified by submission index, so the output
//! order — and therefore everything downstream, from FedAvg to the golden figure
//! fingerprints — is a pure function of the submitted tasks. Worker count, chunking and
//! which thread ran a chunk are wall-clock matters only; the determinism suite pins
//! bit-identical histories across widths 1/2/8.

use std::cell::Cell;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;

/// A unit of work returning a value; see `crate::engine::RoundEngine::try_run_tasks`.
pub type Task<T> = Box<dyn FnOnce() -> T + Send + 'static>;

/// Contiguous chunks queued per participating thread (workers plus the submitter): enough
/// that a thread finishing early finds another chunk, few enough that a fan-out of
/// microsecond tasks costs a handful of queue operations.
const CHUNKS_PER_THREAD: usize = 2;

thread_local! {
    /// Set while the current thread runs pool work, so nested fan-outs (an experiment sweep
    /// whose tasks themselves train in parallel) degrade to inline execution instead of
    /// deadlocking on a saturated pool.
    static IN_POOL_WORKER: Cell<bool> = const { Cell::new(false) };
}

/// Number of workers used when a pool is created with `threads = 0`.
pub(crate) fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map_or(4, |n| n.get())
        .clamp(1, 8)
}

/// Locks a mutex, recovering the guard if a previous holder panicked (task panics are
/// caught before any pool lock is touched, so poisoning is already impossible by
/// construction — this just keeps the pool unkillable even if that invariant slips).
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
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

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Runs one task, catching a panic as the slot's [`JobPanic`] marker.
fn run_slot<T>(slot: usize, task: Task<T>) -> Result<T, JobPanic> {
    catch_unwind(AssertUnwindSafe(task)).map_err(|payload| JobPanic {
        slot,
        message: panic_message(payload),
    })
}

/// Runs every task on the calling thread, in order, with per-slot panic markers — the
/// inline engine and the pool's nested and single-task fan-outs.
pub(crate) fn run_inline<T>(tasks: Vec<Task<T>>) -> Vec<Result<T, JobPanic>> {
    tasks
        .into_iter()
        .enumerate()
        .map(|(slot, task)| run_slot(slot, task))
        .collect()
}

/// A contiguous run of one fan-out's tasks, type-erased so one queue holds every result
/// type: it runs its tasks and writes their outcomes into the fan-out's slots.
type Chunk = Box<dyn FnOnce() + Send>;

/// The result slots of one fan-out, and the latch its submitter waits on.
struct Fan<T> {
    slots: Mutex<Slots<T>>,
    done: Condvar,
}

struct Slots<T> {
    results: Vec<Option<Result<T, JobPanic>>>,
    /// Tasks whose outcome is not written yet.
    pending: usize,
}

impl<T> Fan<T> {
    fn new(n: usize) -> Self {
        Self {
            slots: Mutex::new(Slots {
                results: (0..n).map(|_| None).collect(),
                pending: n,
            }),
            done: Condvar::new(),
        }
    }

    /// Runs the tasks of slots `first..first + tasks.len()`, then writes their outcomes
    /// under one lock, waking the submitter if they were the last.
    fn run_chunk(&self, first: usize, tasks: Vec<Task<T>>) {
        let outcomes: Vec<Result<T, JobPanic>> = tasks
            .into_iter()
            .enumerate()
            .map(|(i, task)| run_slot(first + i, task))
            .collect();
        let mut guard = lock(&self.slots);
        let Slots { results, pending } = &mut *guard;
        *pending -= outcomes.len();
        for (slot, outcome) in results[first..].iter_mut().zip(outcomes) {
            *slot = Some(outcome);
        }
        if *pending == 0 {
            self.done.notify_one();
        }
    }

    fn is_done(&self) -> bool {
        lock(&self.slots).pending == 0
    }

    /// Waits until every chunk has written, then hands the slots back in submission order.
    fn wait_results(&self) -> Vec<Result<T, JobPanic>> {
        let mut slots = lock(&self.slots);
        while slots.pending > 0 {
            slots = self
                .done
                .wait(slots)
                .unwrap_or_else(PoisonError::into_inner);
        }
        std::mem::take(&mut slots.results)
            .into_iter()
            .map(|slot| slot.expect("every slot written exactly once"))
            .collect()
    }
}

/// The queue every thread drains, with the bookkeeping of its sleepers.
struct Queue {
    chunks: VecDeque<Chunk>,
    /// Workers waiting on [`Shared::work`].
    idle: usize,
    live: bool,
    /// Worker wake-ups that found nothing queued.
    stall_wakeups: usize,
}

struct Shared {
    queue: Mutex<Queue>,
    work: Condvar,
}

impl Shared {
    /// Queues a fan-out's chunks under one lock and wakes a sleeping worker for each chunk
    /// beyond the first, which the submitter runs itself.
    fn push(&self, chunks: Vec<Chunk>) {
        let mut queue = lock(&self.queue);
        let wake = chunks.len().saturating_sub(1).min(queue.idle);
        queue.chunks.extend(chunks);
        drop(queue);
        for _ in 0..wake {
            self.work.notify_one();
        }
    }

    fn pop(&self) -> Option<Chunk> {
        lock(&self.queue).chunks.pop_front()
    }
}

fn worker_loop(shared: &Shared) {
    IN_POOL_WORKER.with(|flag| flag.set(true));
    let mut queue = lock(&shared.queue);
    loop {
        if let Some(chunk) = queue.chunks.pop_front() {
            drop(queue);
            chunk();
            queue = lock(&shared.queue);
        } else if !queue.live {
            return;
        } else {
            queue.idle += 1;
            queue = shared
                .work
                .wait(queue)
                .unwrap_or_else(PoisonError::into_inner);
            queue.idle -= 1;
            if queue.chunks.is_empty() && queue.live {
                queue.stall_wakeups += 1;
            }
        }
    }
}

/// A persistent pool of worker threads with slot-indexed, order-preserving result
/// collection. See the module docs for the execution discipline.
pub struct WorkerPool {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("threads", &self.workers.len())
            .finish()
    }
}

impl WorkerPool {
    /// Spawns a pool with `threads` workers (`0` means `default_threads`).
    pub fn new(threads: usize) -> Self {
        let threads = if threads == 0 {
            default_threads()
        } else {
            threads
        };
        let shared = Arc::new(Shared {
            queue: Mutex::new(Queue {
                chunks: VecDeque::new(),
                idle: 0,
                live: true,
                stall_wakeups: 0,
            }),
            work: Condvar::new(),
        });
        let workers = (0..threads)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("fmore-pool-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("failed to spawn worker thread")
            })
            .collect();
        Self { shared, workers }
    }

    /// Number of worker threads.
    pub fn threads(&self) -> usize {
        self.workers.len()
    }

    /// How many times a worker woke and found nothing queued since the pool was built — a
    /// worker woken for a chunk that the submitter (or another worker) ran first. Idle
    /// workers sleep until work arrives, so an idle pool adds nothing here.
    pub fn stall_wakeups(&self) -> usize {
        lock(&self.shared.queue).stall_wakeups
    }

    /// Runs every task on the pool and returns each slot's fate **in submission order**:
    /// `Ok` with the task's value, or [`JobPanic`] when that task panicked. Panics never
    /// kill workers (the pool keeps full capacity) and never mask sibling results —
    /// every healthy slot still delivers.
    ///
    /// When called from pool work (a nested fan-out) the tasks run inline on the calling
    /// thread, which keeps the pool deadlock-free.
    pub fn run_indexed_checked<T: Send + 'static>(
        &self,
        tasks: Vec<Task<T>>,
    ) -> Vec<Result<T, JobPanic>> {
        let n = tasks.len();
        if n <= 1 || IN_POOL_WORKER.with(Cell::get) {
            return run_inline(tasks);
        }
        let fan = Arc::new(Fan::new(n));
        let chunk_len = n.div_ceil(CHUNKS_PER_THREAD * (self.threads() + 1));
        let mut tasks = tasks.into_iter();
        let chunks = (0..n)
            .step_by(chunk_len)
            .map(|first| {
                let batch: Vec<Task<T>> = tasks.by_ref().take(chunk_len).collect();
                let fan = Arc::clone(&fan);
                Box::new(move || fan.run_chunk(first, batch)) as Chunk
            })
            .collect();
        self.shared.push(chunks);
        // Help until this fan-out is done or the queue is empty. The flag makes a nested
        // fan-out inside a borrowed chunk run inline, exactly as it would on a worker.
        IN_POOL_WORKER.with(|flag| flag.set(true));
        while !fan.is_done() {
            match self.shared.pop() {
                Some(chunk) => chunk(),
                None => break,
            }
        }
        IN_POOL_WORKER.with(|flag| flag.set(false));
        fan.wait_results()
    }

    /// Runs every task on the pool and returns the results **in submission order**.
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
        lock(&self.shared.queue).live = false;
        self.shared.work.notify_all();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::mpsc::RecvTimeoutError;
    use std::time::Duration;

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
    fn skewed_fanouts_preserve_submission_order() {
        let pool = WorkerPool::new(4);
        // Heavily skewed costs: the first chunks are orders of magnitude slower, so the
        // chunks finish far out of submission order.
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
    fn idle_workers_sleep_without_stall_wakeups() {
        let pool = WorkerPool::new(2);
        std::thread::sleep(Duration::from_millis(50));
        assert_eq!(pool.stall_wakeups(), 0, "an idle pool never wakes");
        // Each fan-out wakes at most one worker per chunk beyond the submitter's first,
        // so the count stays bounded by the wake-ups actually sent.
        let fanouts = 50;
        for _ in 0..fanouts {
            let tasks: Vec<Task<usize>> = (0..64usize)
                .map(|i| Box::new(move || i * 3) as Task<usize>)
                .collect();
            assert_eq!(
                pool.run_indexed(tasks),
                (0..64).map(|i| i * 3).collect::<Vec<_>>()
            );
        }
        assert!(pool.stall_wakeups() <= fanouts * pool.threads());
    }

    /// Eight submitters share a width-2 pool, each running a few hundred fan-outs of 1–64
    /// tasks, some of them nested fan-outs and some panicking: every result must come back
    /// in its slot with the right marker, and the whole storm must finish well inside a
    /// timeout (a lost wake-up or a missed latch would hang it).
    #[test]
    fn concurrent_submitters_get_every_slot_back_in_order() {
        const SUBMITTERS: usize = 8;
        const FANOUTS: usize = 300;
        let pool = Arc::new(WorkerPool::new(2));
        let (tx, rx) = std::sync::mpsc::channel();
        let mut submitters = Vec::new();
        for submitter in 0..SUBMITTERS {
            let (pool, tx) = (Arc::clone(&pool), tx.clone());
            submitters.push(std::thread::spawn(move || {
                for round in 0..FANOUTS {
                    let n = 1 + (submitter * 31 + round * 17) % 64;
                    let doomed = (round % 7 == 0).then_some((submitter + round) % n);
                    let tasks: Vec<Task<usize>> = (0..n)
                        .map(|slot| {
                            let pool = Arc::clone(&pool);
                            Box::new(move || {
                                if doomed == Some(slot) {
                                    panic!("slot {slot} of round {round} died");
                                }
                                if slot % 16 == 3 {
                                    let inner: Vec<Task<usize>> = (0..4usize)
                                        .map(|j| Box::new(move || slot + j) as Task<usize>)
                                        .collect();
                                    return pool.run_indexed(inner).into_iter().sum();
                                }
                                slot * 1_000 + round
                            }) as Task<usize>
                        })
                        .collect();
                    for (slot, fate) in pool.run_indexed_checked(tasks).into_iter().enumerate() {
                        match fate {
                            Err(marker) => {
                                assert_eq!(doomed, Some(slot), "unexpected panic: {marker}");
                                assert_eq!(marker.slot, slot);
                                assert_eq!(
                                    marker.message,
                                    format!("slot {slot} of round {round} died")
                                );
                            }
                            Ok(value) if slot % 16 == 3 => assert_eq!(value, 4 * slot + 6),
                            Ok(value) => assert_eq!(value, slot * 1_000 + round),
                        }
                    }
                }
                tx.send(()).unwrap();
            }));
        }
        drop(tx);
        // A submitter that failed an assertion hangs up instead of timing out; the joins
        // below then surface its panic.
        for _ in 0..SUBMITTERS {
            if let Err(RecvTimeoutError::Timeout) = rx.recv_timeout(Duration::from_secs(60)) {
                panic!("a fan-out never completed");
            }
        }
        for submitter in submitters {
            submitter.join().expect("every submitter finished cleanly");
        }
    }
}
