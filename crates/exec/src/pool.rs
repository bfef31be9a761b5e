//! Process-wide worker pool: morsel-driven intra-query parallelism, and
//! the mediator's session slots.
//!
//! The scheduler (priority order, C-/M-schedulability, critical degree)
//! stays the *admission* layer: it still decides which fragment runs a batch
//! next. Once a batch is admitted, [`WorkerPool::execute`] fans its morsels
//! out across a fixed set of worker threads fed from ONE first-in,
//! first-out queue, and gathers results back **in submission order** — the
//! merge order never depends on which worker ran a morsel or when, which
//! is one half of the bit-identical answer guarantee (the other half is the
//! arithmetic chain forking in `dqs-relop`). Nothing about placement is
//! recorded, so a parallel run's trace is as repeatable as a serial one's.
//!
//! One pool is shared by everything in the process that fans out morsels:
//! every mediator session, every bench repetition. Sharing is what keeps
//! the admission layer meaningful — concurrent queries compete for the same
//! workers instead of each spawning its own set. [`WorkerPool::spawn`] puts
//! fire-and-forget tasks on the same queue; the mediator runs its session
//! slots that way, on a pool of their own.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};
use std::thread::JoinHandle;

/// The argument every [`WorkerPool::execute`] task receives. It carries
/// nothing: which thread ran a task is not the task's business.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TaskCtx;

type Task = Box<dyn FnOnce(&PoolShared) + Send + 'static>;

/// The queue and the stop flag, under the pool's one mutex.
struct Queue {
    tasks: VecDeque<Task>,
    stop: bool,
}

struct PoolShared {
    queue: Mutex<Queue>,
    /// Signalled when tasks are queued and when the pool stops.
    ready: Condvar,
    busy: AtomicU64,
    dispatched: AtomicU64,
}

/// Tasks never run under the queue lock, so none can poison it.
const UNPOISONED: &str = "no task runs under the pool's queue lock";

impl PoolShared {
    fn lock(&self) -> MutexGuard<'_, Queue> {
        self.queue.lock().expect(UNPOISONED)
    }

    fn push(&self, tasks: impl IntoIterator<Item = Task>) {
        let mut q = self.lock();
        let before = q.tasks.len();
        q.tasks.extend(tasks);
        let n = q.tasks.len() - before;
        self.dispatched.fetch_add(n as u64, Ordering::Relaxed);
        drop(q);
        // A batch wakes every worker with one call; a notify per task would
        // cost a system call per task.
        if n == 1 {
            self.ready.notify_one();
        } else {
            self.ready.notify_all();
        }
    }

    fn pop(&self) -> Option<Task> {
        self.lock().tasks.pop_front()
    }

    /// Run `f`, counted as busy until it returns — so a task's bookkeeping
    /// is settled before its result is sent.
    fn counted<T>(&self, f: impl FnOnce() -> T) -> T {
        self.busy.fetch_add(1, Ordering::Relaxed);
        let out = f();
        self.busy.fetch_sub(1, Ordering::Relaxed);
        out
    }
}

/// Point-in-time snapshot of the pool's activity counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Number of worker threads.
    pub workers: u64,
    /// Tasks running now: on a worker, or inline on an
    /// [`WorkerPool::execute`] caller helping drain the queue.
    pub busy_workers: u64,
    /// Tasks submitted but not yet started.
    pub queued: u64,
    /// Total tasks ever submitted.
    pub dispatched: u64,
}

/// Fixed-size thread pool over one FIFO queue (see module docs).
///
/// Morsels are coarse (hundreds of microseconds of modeled work each), so
/// one mutex around one queue is noise; what matters is that results merge
/// in submission order.
pub struct WorkerPool {
    shared: Arc<PoolShared>,
    threads: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("stats", &self.stats())
            .finish()
    }
}

impl WorkerPool {
    /// Spawn a pool with `workers` threads (clamped to at least 1).
    pub fn new(workers: usize) -> Arc<WorkerPool> {
        let shared = Arc::new(PoolShared {
            queue: Mutex::new(Queue {
                tasks: VecDeque::new(),
                stop: false,
            }),
            ready: Condvar::new(),
            busy: AtomicU64::new(0),
            dispatched: AtomicU64::new(0),
        });
        let threads = (0..workers.max(1))
            .map(|i| {
                let sh = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("dqs-worker-{i}"))
                    .spawn(move || worker_loop(&sh))
                    .expect("spawn pool worker")
            })
            .collect();
        Arc::new(WorkerPool { shared, threads })
    }

    /// The process-global pool, sized to the machine (capped at 8), created
    /// on first use. Engines configured with `workers > 1` fall back to this
    /// when no pool was attached explicitly; the mediator attaches its own
    /// `--exec-workers`-sized pool instead.
    pub fn global() -> &'static Arc<WorkerPool> {
        static GLOBAL: OnceLock<Arc<WorkerPool>> = OnceLock::new();
        GLOBAL.get_or_init(|| {
            let n = std::thread::available_parallelism().map_or(2, |n| n.get());
            WorkerPool::new(n.clamp(1, 8))
        })
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.threads.len()
    }

    /// Snapshot the activity counters.
    pub fn stats(&self) -> PoolStats {
        let queued = self.shared.lock().tasks.len() as u64;
        PoolStats {
            workers: self.threads.len() as u64,
            busy_workers: self.shared.busy.load(Ordering::Relaxed),
            queued,
            dispatched: self.shared.dispatched.load(Ordering::Relaxed),
        }
    }

    /// Queue `task` to run on a worker and return at once.
    pub fn spawn(&self, task: impl FnOnce() + Send + 'static) {
        self.shared
            .push([Box::new(move |sh: &PoolShared| sh.counted(task)) as Task]);
    }

    /// Run every task on the pool and return their results **in submission
    /// order**, blocking the caller until all are done. Completion order is
    /// scheduling-dependent; the returned `Vec` is not.
    ///
    /// Safe to call from many threads at once (concurrent mediator sessions
    /// share one pool); each call gathers only its own tasks. Also safe to
    /// call from *inside* a pool task (a bench repetition running on the
    /// pool whose engine fans out morsels): the caller runs queued tasks
    /// inline until the queue is empty, so even a one-worker pool makes
    /// progress. Once it is empty every one of this call's tasks has been
    /// claimed by a running thread, and the caller waits for their results.
    ///
    /// # Panics
    /// Panics if a task panicked (its result never arrives).
    pub fn execute<T, F>(&self, tasks: Vec<F>) -> Vec<T>
    where
        T: Send + 'static,
        F: FnOnce(TaskCtx) -> T + Send + 'static,
    {
        let n = tasks.len();
        if n == 0 {
            return Vec::new();
        }
        let (tx, rx) = mpsc::channel::<(usize, T)>();
        self.shared
            .push(tasks.into_iter().enumerate().map(|(idx, f)| {
                let tx = tx.clone();
                Box::new(move |sh: &PoolShared| {
                    let out = sh.counted(|| f(TaskCtx));
                    // A dropped receiver just means the gatherer already
                    // panicked; nothing useful to do with the error.
                    let _ = tx.send((idx, out));
                }) as Task
            }));
        drop(tx);
        while let Some(task) = self.shared.pop() {
            task(&self.shared);
        }
        // Every task holds a sender until it finishes, so the channel
        // disconnects exactly when the last one is done.
        let mut slots: Vec<Option<T>> = (0..n).map(|_| None).collect();
        for (idx, out) in rx {
            slots[idx] = Some(out);
        }
        slots
            .into_iter()
            .map(|s| s.expect("pool task panicked on worker"))
            .collect()
    }
}

impl Drop for WorkerPool {
    /// Drain the queue, then join the workers.
    fn drop(&mut self) {
        let mut q = self
            .shared
            .queue
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        q.stop = true;
        drop(q);
        self.shared.ready.notify_all();
        for h in self.threads.drain(..) {
            let _ = h.join();
        }
    }
}

fn worker_loop(sh: &PoolShared) {
    let mut q = sh.lock();
    loop {
        if let Some(task) = q.tasks.pop_front() {
            drop(q);
            task(sh);
            q = sh.lock();
        } else if q.stop {
            return;
        } else {
            q = sh.ready.wait(q).expect(UNPOISONED);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn results_come_back_in_submission_order() {
        let pool = WorkerPool::new(4);
        let tasks: Vec<_> = (0..64)
            .map(|i| {
                move |_ctx: TaskCtx| {
                    // Uneven task lengths so completion order scrambles.
                    std::thread::sleep(Duration::from_micros(((i * 7) % 13) * 50));
                    i * i
                }
            })
            .collect();
        let got = pool.execute(tasks);
        let want: Vec<u64> = (0..64).map(|i| i * i).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn concurrent_callers_each_get_their_own_results() {
        let pool = WorkerPool::new(3);
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..4u64)
                .map(|caller| {
                    let pool = Arc::clone(&pool);
                    s.spawn(move || {
                        let tasks: Vec<_> = (0..20u64)
                            .map(|i| move |_ctx: TaskCtx| caller * 1000 + i)
                            .collect();
                        pool.execute(tasks)
                    })
                })
                .collect();
            for (caller, h) in handles.into_iter().enumerate() {
                let got = h.join().unwrap();
                let want: Vec<u64> = (0..20).map(|i| caller as u64 * 1000 + i).collect();
                assert_eq!(got, want);
            }
        });
    }

    /// The counters are settled by the time `execute` returns: no worker
    /// is still between sending its result and leaving the task.
    #[test]
    fn stats_count_dispatches() {
        let pool = WorkerPool::new(2);
        for round in 1..=1_000u64 {
            let _ = pool.execute((0..10).map(|i| move |_ctx: TaskCtx| i).collect::<Vec<_>>());
            let st = pool.stats();
            assert_eq!(st.workers, 2);
            assert_eq!(st.dispatched, 10 * round);
            assert_eq!(st.queued, 0);
            assert_eq!(st.busy_workers, 0, "round {round}");
        }
    }

    #[test]
    fn empty_task_list_is_a_noop() {
        let pool = WorkerPool::new(1);
        let got: Vec<u64> = pool.execute(Vec::<fn(TaskCtx) -> u64>::new());
        assert!(got.is_empty());
    }

    #[test]
    fn nested_execute_from_inside_a_task_cannot_deadlock() {
        // One worker: the outer task occupies it, so the inner execute can
        // only finish because the caller runs queued tasks inline.
        let pool = WorkerPool::new(1);
        let inner_pool = Arc::clone(&pool);
        let got = pool.execute(vec![move |_ctx: TaskCtx| {
            inner_pool.execute(
                (0..8u64)
                    .map(|i| move |_ctx: TaskCtx| i * 2)
                    .collect::<Vec<_>>(),
            )
        }]);
        assert_eq!(got[0], (0..8).map(|i| i * 2).collect::<Vec<u64>>());
    }

    /// Spawned tasks share the queue, and dropping the pool runs whatever
    /// is still queued before the workers are joined.
    #[test]
    fn drop_drains_spawned_tasks() {
        let pool = WorkerPool::new(1);
        let (tx, rx) = mpsc::channel();
        for i in 0..16u64 {
            let tx = tx.clone();
            pool.spawn(move || tx.send(i).unwrap());
        }
        drop(pool);
        drop(tx);
        assert_eq!(rx.iter().collect::<Vec<_>>(), (0..16).collect::<Vec<_>>());
    }
}
