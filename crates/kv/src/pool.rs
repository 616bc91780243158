//! A shared worker pool for executing the requests of one round in
//! parallel.
//!
//! The paper's latency model (§4, Fig. 12) assumes all requests of a round
//! fan out together and the round completes at the *slowest* request.
//! [`SimCluster`](crate::SimCluster) models that in virtual time;
//! [`LiveCluster`](crate::LiveCluster) achieves it on the wall clock by
//! scattering a round with service time to overlap over this pool.
//!
//! Design constraints, in order:
//!
//! 1. **No oversubscription.** One process hosts many concurrent sessions
//!    (one per TCP connection in `piql-server`); if each round spawned its
//!    own threads, N sessions × K requests would stampede the scheduler.
//!    All sessions of a cluster share one fixed pool.
//! 2. **No deadlock under saturation.** The caller *participates*: it
//!    drains its own round's task queue alongside the workers, so a round
//!    always completes even if every worker is busy with other rounds (or
//!    the pool has zero threads — then execution is simply sequential on
//!    the calling thread).
//! 3. **Positional results.** Responses are joined back in request order,
//!    whatever order tasks finished in.
//! 4. **Panic containment.** A panicking task is caught on whichever
//!    thread ran it and re-raised on the round's calling thread at join,
//!    so workers survive and unrelated sessions are unaffected.
//!
//! The pool's threads are a [`Workers`] set: fixed threads taking typed
//! jobs off one queue. `piql-server`'s dispatch of tagged requests is the
//! other such set, its jobs the requests themselves.

use piql_analysis::ordered::{Condvar, Mutex};
use piql_analysis::rank;
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

type Task = Box<dyn FnOnce() + Send + 'static>;
type PanicPayload = Box<dyn std::any::Any + Send + 'static>;

/// Monotonic pool counters (reporting only).
#[derive(Debug, Default)]
pub struct PoolStats {
    /// Rounds that were fanned out (≥ 2 tasks and at least one worker).
    pub fanned_rounds: AtomicU64,
    /// Tasks executed by pool workers (as opposed to the calling thread).
    pub worker_tasks: AtomicU64,
}

/// A fixed-size worker pool scattering rounds of closures.
pub struct RoundPool {
    workers: Workers<Task>,
    pub stats: PoolStats,
}

impl RoundPool {
    /// A pool with `threads` workers. `threads = 0` is valid: every round
    /// runs sequentially on its calling thread.
    pub fn new(threads: usize) -> Self {
        RoundPool {
            workers: Workers::new(
                threads,
                "piql-kv-pool",
                rank::POOL_QUEUE,
                "pool.queue",
                |task: Task| task(),
            ),
            stats: PoolStats::default(),
        }
    }

    pub fn worker_count(&self) -> usize {
        self.workers.count()
    }

    /// Run every closure, in parallel where workers allow, and return the
    /// results in input order. Completes when the slowest closure does.
    ///
    /// The calling thread executes tasks too, so this never deadlocks and
    /// degrades gracefully to sequential execution under saturation. If any
    /// task panicked, the panic is re-raised here after the round settles.
    pub fn scatter<T, F>(&self, fns: Vec<F>) -> Vec<T>
    where
        F: FnOnce() -> T + Send + 'static,
        T: Send + 'static,
    {
        let n = fns.len();
        if n <= 1 || self.workers.count() == 0 {
            return fns.into_iter().map(|f| f()).collect();
        }
        self.stats.fanned_rounds.fetch_add(1, Ordering::Relaxed);
        let state = Arc::new(RoundState::new(fns));
        // One helper per task beyond the caller's own, capped at the pool
        // width; a helper that arrives after the round drained just returns.
        let helpers = (n - 1).min(self.workers.count());
        for _ in 0..helpers {
            let state = state.clone();
            self.workers.push(Box::new(move || state.drain(true)));
        }
        state.drain(false);
        let (results, worker_tasks) = state.join();
        self.stats
            .worker_tasks
            .fetch_add(worker_tasks, Ordering::Relaxed);
        results
    }
}

/// The default worker count for host-sized pools: one worker per
/// available core, with a floor of 4 (round tasks mostly *wait* — on shard
/// locks or storage I/O — so overlap pays even on small hosts) and a cap of
/// 16 (rounds are short; more threads only add contention).
pub fn default_pool_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
        .clamp(4, 16)
}

/// A fixed set of threads that run the jobs pushed onto one queue, in push
/// order, each through the one handler the set was started with. A job is
/// a value of one type, so a push moves it into the queue and allocates
/// nothing once the queue has grown to the most jobs ever waiting. With no
/// threads a push runs its job on the caller — degraded, never lost. A
/// job that panics is caught and swallowed on whichever thread ran it:
/// nothing waits on it to re-raise the panic at, and a worker must
/// survive, or one bad job would shrink the set for good while pushes
/// kept queueing onto it.
///
/// The workspace's two pools are such sets: [`RoundPool`]'s workers run
/// round helpers, and `piql-server`'s dispatch workers run tagged requests.
pub struct Workers<J: Send + 'static> {
    shared: Arc<Shared<J>>,
    run: Arc<dyn Fn(J) + Send + Sync>,
    threads: Vec<JoinHandle<()>>,
}

struct Shared<J> {
    queue: Mutex<VecDeque<J>>,
    job_ready: Condvar,
    shutdown: AtomicBool,
}

impl<J: Send + 'static> Workers<J> {
    /// `threads` workers named `name-<i>`, running each job with `run`,
    /// their queue a lock of `rank` named `lock_name`. `threads = 0` is
    /// valid: every job runs on the thread that pushes it.
    pub fn new(
        threads: usize,
        name: &str,
        rank: u32,
        lock_name: &'static str,
        run: impl Fn(J) + Send + Sync + 'static,
    ) -> Self {
        let shared = Arc::new(Shared {
            queue: Mutex::new(rank, lock_name, VecDeque::new()),
            job_ready: Condvar::new(),
            shutdown: AtomicBool::new(false),
        });
        let run: Arc<dyn Fn(J) + Send + Sync> = Arc::new(run);
        let threads = (0..threads)
            .map(|i| {
                let (shared, run) = (shared.clone(), run.clone());
                std::thread::Builder::new()
                    .name(format!("{name}-{i}"))
                    .spawn(move || worker_loop(&shared, &*run))
                    .expect("spawn pool worker")
            })
            .collect();
        Workers {
            shared,
            run,
            threads,
        }
    }

    pub fn count(&self) -> usize {
        self.threads.len()
    }

    /// Run `job` on some worker, or here when there is none.
    pub fn push(&self, job: J) {
        if self.threads.is_empty() {
            run_caught(&*self.run, job);
        } else {
            self.shared.queue.lock().push_back(job);
            self.shared.job_ready.notify_one();
        }
    }
}

fn run_caught<J>(run: &(dyn Fn(J) + Send + Sync), job: J) {
    let _ = catch_unwind(AssertUnwindSafe(|| run(job)));
}

impl<J: Send + 'static> Drop for Workers<J> {
    fn drop(&mut self) {
        // Store the flag while holding the queue lock: a worker checks
        // `shutdown` and parks in one critical section, so it either has
        // not checked yet (and will see the store) or is already parked in
        // `wait` (so `notify_all` reaches it). Storing outside the lock
        // loses the race where a worker checks `shutdown`, then the store
        // + notify land before it parks — the notify wakes nobody and
        // `join` blocks forever.
        {
            let _queue = self.shared.queue.lock();
            self.shared.shutdown.store(true, Ordering::SeqCst);
        }
        self.shared.job_ready.notify_all();
        // The last handle may be released by a job on these very workers
        // (one that owns an `Arc` of them). Joining oneself fails with
        // EDEADLK, which std turns into a panic, so that worker is not
        // joined: it sees the flag when its job returns, and exits.
        let me = std::thread::current().id();
        for handle in self.threads.drain(..) {
            if handle.thread().id() != me {
                let _ = handle.join();
            }
        }
    }
}

fn worker_loop<J>(shared: &Shared<J>, run: &(dyn Fn(J) + Send + Sync)) {
    loop {
        let job = {
            let mut queue = shared.queue.lock();
            loop {
                if let Some(job) = queue.pop_front() {
                    // Baton-pass before running: two rapid notify_one calls
                    // can be consumed by a single waiter (condvar signal
                    // stealing), which would serialize independent jobs
                    // behind this one. If work remains queued, wake another
                    // worker now.
                    if !queue.is_empty() {
                        shared.job_ready.notify_one();
                    }
                    break job;
                }
                // The flag is stored under this lock (see `Drop`), so
                // between this check and the park no shutdown can slip in.
                if shared.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                queue = shared.job_ready.wait(queue);
            }
        };
        run_caught(run, job);
    }
}

/// Shared state of one in-flight round.
struct RoundState<T, F> {
    /// Unclaimed tasks, tagged with their result slot.
    pending: Mutex<VecDeque<(usize, F)>>,
    inner: Mutex<RoundInner<T>>,
    done: Condvar,
}

struct RoundInner<T> {
    slots: Vec<Option<T>>,
    remaining: usize,
    worker_tasks: u64,
    panic: Option<PanicPayload>,
}

impl<T, F> RoundState<T, F>
where
    F: FnOnce() -> T,
{
    fn new(fns: Vec<F>) -> Self {
        let n = fns.len();
        RoundState {
            pending: Mutex::new(
                rank::POOL_ROUND_PENDING,
                "pool.round.pending",
                fns.into_iter().enumerate().collect(),
            ),
            inner: Mutex::new(
                rank::POOL_ROUND_INNER,
                "pool.round.inner",
                RoundInner {
                    slots: (0..n).map(|_| None).collect(),
                    remaining: n,
                    worker_tasks: 0,
                    panic: None,
                },
            ),
            done: Condvar::new(),
        }
    }

    /// Claim and run unstarted tasks until none remain.
    fn drain(&self, as_worker: bool) {
        loop {
            let claimed = self.pending.lock().pop_front();
            let Some((slot, f)) = claimed else {
                return;
            };
            let result = catch_unwind(AssertUnwindSafe(f));
            let mut inner = self.inner.lock();
            match result {
                Ok(value) => inner.slots[slot] = Some(value),
                Err(payload) => inner.panic = Some(payload),
            }
            inner.remaining -= 1;
            if as_worker {
                inner.worker_tasks += 1;
            }
            if inner.remaining == 0 {
                self.done.notify_all();
            }
        }
    }

    /// Wait for every task (including ones claimed by workers) and take the
    /// ordered results; re-raises a task panic on this thread.
    fn join(&self) -> (Vec<T>, u64) {
        let mut inner = self.inner.lock();
        while inner.remaining > 0 {
            inner = self.done.wait(inner);
        }
        if let Some(payload) = inner.panic.take() {
            drop(inner);
            resume_unwind(payload);
        }
        let worker_tasks = inner.worker_tasks;
        let out = inner
            .slots
            .iter_mut()
            .map(|slot| slot.take().expect("every slot filled"))
            .collect();
        (out, worker_tasks)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::{Duration, Instant};

    #[test]
    fn results_are_positional() {
        let pool = RoundPool::new(4);
        for _ in 0..50 {
            let fns: Vec<_> = (0..16).map(|i| move || i * 10).collect();
            let out = pool.scatter(fns);
            assert_eq!(out, (0..16).map(|i| i * 10).collect::<Vec<_>>());
        }
    }

    #[test]
    fn zero_worker_pool_runs_inline() {
        let pool = RoundPool::new(0);
        let out = pool.scatter(vec![|| 1, || 2]);
        assert_eq!(out, vec![1, 2]);
        assert_eq!(pool.stats.fanned_rounds.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn sleepy_tasks_overlap() {
        let pool = RoundPool::new(8);
        let t0 = Instant::now();
        let fns: Vec<_> = (0..8)
            .map(|i| {
                move || {
                    std::thread::sleep(Duration::from_millis(20));
                    i
                }
            })
            .collect();
        let out = pool.scatter(fns);
        let elapsed = t0.elapsed();
        assert_eq!(out, (0..8).collect::<Vec<_>>());
        // 8 × 20 ms sequential would be 160 ms; parallel is ~20 ms. Allow
        // generous scheduler slack while still ruling out the sum.
        assert!(elapsed < Duration::from_millis(120), "{elapsed:?}");
    }

    #[test]
    fn concurrent_rounds_share_the_pool() {
        let pool = Arc::new(RoundPool::new(4));
        let handles: Vec<_> = (0..6)
            .map(|t| {
                let pool = pool.clone();
                std::thread::spawn(move || {
                    for _ in 0..20 {
                        let fns: Vec<_> = (0..10).map(|i| move || t * 100 + i).collect();
                        let out = pool.scatter(fns);
                        assert_eq!(out, (0..10).map(|i| t * 100 + i).collect::<Vec<_>>());
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    fn round_completes_while_every_worker_is_held_by_another_round() {
        // Constraint 2 under saturation, with no help from anyone: one
        // worker, and round A's two tasks hold both it and A's caller
        // until released. Round B starts with no worker free and must
        // complete on its caller alone.
        use std::sync::mpsc;
        let pool = Arc::new(RoundPool::new(1));
        let (started_tx, started_rx) = mpsc::channel();
        let (release_txs, release_rxs): (Vec<_>, Vec<_>) =
            (0..2).map(|_| mpsc::channel::<()>()).unzip();
        let p = pool.clone();
        let a = std::thread::spawn(move || {
            let fns: Vec<_> = release_rxs
                .into_iter()
                .map(|release| {
                    let started = started_tx.clone();
                    move || {
                        started.send(()).unwrap();
                        release.recv().unwrap();
                    }
                })
                .collect();
            p.scatter(fns);
        });
        // both of A's tasks running = the caller and the only worker are held
        for _ in 0..2 {
            started_rx
                .recv_timeout(Duration::from_secs(30))
                .expect("round A never occupied the worker");
        }
        let (done_tx, done_rx) = mpsc::channel();
        let p = pool.clone();
        let b = std::thread::spawn(move || {
            let fns: Vec<_> = (0..6).map(|i| move || i * 2).collect();
            done_tx.send(p.scatter(fns)).unwrap();
        });
        let out = done_rx
            .recv_timeout(Duration::from_secs(30))
            .expect("round B waited for a worker instead of running on its caller");
        assert_eq!(out, (0..6).map(|i| i * 2).collect::<Vec<_>>());
        assert_eq!(
            pool.stats.worker_tasks.load(Ordering::Relaxed),
            0,
            "the held worker cannot have run any of B's tasks"
        );
        for release in release_txs {
            release.send(()).unwrap();
        }
        a.join().unwrap();
        b.join().unwrap();
        assert_eq!(pool.stats.worker_tasks.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn last_handle_can_be_dropped_by_a_job_on_the_workers() {
        use std::sync::mpsc;
        let workers = Arc::new(Workers::new(
            2,
            "test-pool",
            rank::POOL_QUEUE,
            "test.queue",
            |task: Task| task(),
        ));
        let (go_tx, go_rx) = mpsc::channel::<()>();
        let (done_tx, done_rx) = mpsc::channel();
        let held = workers.clone();
        workers.push(Box::new(move || {
            go_rx.recv().unwrap();
            // the test's handle is gone: this drop runs `Workers::drop` on
            // one of its own threads
            drop(held);
            done_tx.send(()).unwrap();
        }));
        drop(workers);
        go_tx.send(()).unwrap();
        done_rx
            .recv_timeout(Duration::from_secs(30))
            .expect("dropping the workers on one of their threads must return, not panic");
    }

    #[test]
    fn drop_never_hangs_on_shutdown_race() {
        // Regression (found as a wedged tier-1 run on a 1-core host): the
        // shutdown flag used to be stored outside the queue lock, so a
        // drop racing a worker's park could strand the worker on
        // `task_ready` forever and hang `join`. Hammer the
        // create/scatter/drop cycle under a watchdog; the exhaustive
        // schedule proof is `piql_analysis::models::PoolShutdownModel`.
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            for i in 0..200 {
                let pool = RoundPool::new(4);
                if i % 2 == 0 {
                    let fns: Vec<_> = (0..4).map(|j| move || j).collect();
                    assert_eq!(pool.scatter(fns), vec![0, 1, 2, 3]);
                }
                drop(pool);
            }
            tx.send(()).unwrap();
        });
        rx.recv_timeout(Duration::from_secs(60))
            .expect("a pool drop lost its shutdown wakeup and hung");
    }

    #[test]
    fn task_panic_propagates_to_caller_and_pool_survives() {
        let pool = Arc::new(RoundPool::new(2));
        let p = pool.clone();
        let caller = std::thread::spawn(move || {
            let fns: Vec<Box<dyn FnOnce() -> i32 + Send>> =
                vec![Box::new(|| panic!("boom")), Box::new(|| 2), Box::new(|| 3)];
            p.scatter(fns);
        });
        assert!(caller.join().is_err(), "panic re-raised on the caller");
        // workers caught the panic and keep serving fresh rounds
        let out = pool.scatter(vec![|| 1, || 2, || 3]);
        assert_eq!(out, vec![1, 2, 3]);
        assert_eq!(pool.worker_count(), 2);
    }
}
