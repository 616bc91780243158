//! A deterministic mini model checker for small concurrency models.
//!
//! Real schedulers only ever show one interleaving per run; the races this
//! workspace has actually shipped (the RoundPool condvar baton-pass race in
//! PR 5, the WAL rotation/group-commit race in PR 6) each hid in one
//! specific interleaving. This harness explores interleavings on purpose:
//! a concurrent algorithm is written as a handful of *virtual threads*
//! advancing a shared state machine one atomic step at a time, and the
//! explorer drives every (or, in random mode, many) schedules over it.
//!
//! Models are deliberately tiny — a few threads, a few steps each — so
//! exhaustive exploration with state memoization finishes in milliseconds.
//! A model is *not* the production code; it is the production algorithm's
//! locking skeleton, small enough to enumerate. See [`crate::models`] for
//! the two regression models.
//!
//! ## Writing a model
//!
//! Implement [`Model`]: `step(tid)` advances thread `tid` by one atomic
//! step and reports whether it ran, is blocked, or has finished.
//! [`Model::invariant`] is checked after every successful step — express
//! safety properties ("no acknowledged record is absent from a synced
//! segment") there, and liveness-on-termination properties ("no task left
//! unclaimed while workers park") in [`Model::on_stuck`].
//!
//! `step` must be deterministic and may mutate freely even when it returns
//! [`Step::Blocked`]: the explorer clones the model before every probe and
//! discards the clone if the thread did not run.

use std::collections::HashSet;
use std::hash::{DefaultHasher, Hash, Hasher};

/// Result of advancing one virtual thread by one atomic step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Step {
    /// The thread performed its step; the model state advanced.
    Ran,
    /// The thread cannot run right now (lock held elsewhere, condition not
    /// yet true). The explorer will retry it after other threads move.
    Blocked,
    /// The thread has no more steps.
    Done,
}

/// A small concurrency model: `threads()` virtual threads advancing one
/// shared state machine.
pub trait Model {
    /// Number of virtual threads. Thread ids are `0..threads()`.
    fn threads(&self) -> usize;

    /// Advance thread `tid` by one atomic step.
    fn step(&mut self, tid: usize) -> Step;

    /// Safety property, checked after every successful step and in every
    /// terminal state.
    fn invariant(&self) -> Result<(), String> {
        Ok(())
    }

    /// Called when no thread can run but not all threads are done. Return
    /// `Err` to treat the stuck state as a violation (lost wakeup /
    /// deadlock), `Ok` if parking forever is legitimate here.
    fn on_stuck(&self) -> Result<(), String> {
        Ok(())
    }
}

/// A schedule that violated the model, with the failing step sequence
/// (thread ids in execution order) for replay.
#[derive(Debug, Clone)]
pub struct Violation {
    pub schedule: Vec<usize>,
    pub message: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} (schedule {:?})", self.message, self.schedule)
    }
}

/// Exploration statistics for a passing run.
#[derive(Debug, Clone, Copy, Default)]
pub struct Stats {
    /// Distinct states visited (exhaustive) or schedules executed (random).
    pub explored: u64,
    /// Longest schedule observed.
    pub max_depth: usize,
}

/// Exhaustively explore every schedule of `model`, deduplicating on state:
/// since steps are deterministic, an already-seen state's subtree needs no
/// second visit. Returns the first violating schedule found, if any.
///
/// `max_steps` bounds a single schedule's length as a runaway guard; tiny
/// models sit far below it.
pub fn explore<M>(model: &M, max_steps: usize) -> Result<Stats, Violation>
where
    M: Model + Clone + Hash,
{
    let mut seen: HashSet<u64> = HashSet::new();
    let mut stats = Stats::default();
    let mut schedule = Vec::new();
    dfs(model, max_steps, &mut seen, &mut stats, &mut schedule)?;
    Ok(stats)
}

fn dfs<M>(
    model: &M,
    budget: usize,
    seen: &mut HashSet<u64>,
    stats: &mut Stats,
    schedule: &mut Vec<usize>,
) -> Result<(), Violation>
where
    M: Model + Clone + Hash,
{
    if !seen.insert(fingerprint(model)) {
        return Ok(());
    }
    stats.explored += 1;
    stats.max_depth = stats.max_depth.max(schedule.len());
    if budget == 0 {
        return Err(Violation {
            schedule: schedule.clone(),
            message: "model did not terminate within the step budget".to_string(),
        });
    }

    let mut any_ran = false;
    let mut all_done = true;
    for tid in 0..model.threads() {
        let mut next = model.clone();
        match next.step(tid) {
            Step::Done => continue,
            Step::Blocked => {
                all_done = false;
                continue;
            }
            Step::Ran => {
                any_ran = true;
                all_done = false;
                schedule.push(tid);
                if let Err(message) = next.invariant() {
                    return Err(Violation {
                        schedule: schedule.clone(),
                        message,
                    });
                }
                dfs(&next, budget - 1, seen, stats, schedule)?;
                schedule.pop();
            }
        }
    }

    if !any_ran {
        let check = if all_done {
            model.invariant()
        } else {
            model.on_stuck()
        };
        if let Err(message) = check {
            return Err(Violation {
                schedule: schedule.clone(),
                message,
            });
        }
    }
    Ok(())
}

/// Run `iterations` randomly-scheduled executions of `model`, seeded for
/// reproducibility. Complements [`explore`] for models a bit too large to
/// enumerate; with a fixed seed a failure is replayable.
pub fn explore_random<M>(
    model: &M,
    seed: u64,
    iterations: u64,
    max_steps: usize,
) -> Result<Stats, Violation>
where
    M: Model + Clone,
{
    let mut stats = Stats::default();
    let mut rng = seed.max(1);
    for _ in 0..iterations {
        stats.explored += 1;
        let mut state = model.clone();
        let mut schedule = Vec::new();
        loop {
            if schedule.len() > max_steps {
                return Err(Violation {
                    schedule,
                    message: "model did not terminate within the step budget".to_string(),
                });
            }
            // Probe threads in a randomly-rotated order; take the first
            // runnable one.
            let n = state.threads();
            let start = {
                rng ^= rng << 13;
                rng ^= rng >> 7;
                rng ^= rng << 17;
                (rng % n as u64) as usize
            };
            let mut progressed = false;
            let mut all_done = true;
            for off in 0..n {
                let tid = (start + off) % n;
                let mut next = state.clone();
                match next.step(tid) {
                    Step::Done => continue,
                    Step::Blocked => {
                        all_done = false;
                        continue;
                    }
                    Step::Ran => {
                        schedule.push(tid);
                        if let Err(message) = next.invariant() {
                            return Err(Violation { schedule, message });
                        }
                        state = next;
                        progressed = true;
                        break;
                    }
                }
            }
            if progressed {
                continue;
            }
            let check = if all_done {
                state.invariant()
            } else {
                state.on_stuck()
            };
            if let Err(message) = check {
                return Err(Violation { schedule, message });
            }
            stats.max_depth = stats.max_depth.max(schedule.len());
            break;
        }
    }
    Ok(stats)
}

fn fingerprint<M: Hash>(model: &M) -> u64 {
    let mut h = DefaultHasher::new();
    model.hash(&mut h);
    h.finish()
}

/// A mutex for use *inside* models: plain state, no real blocking. Threads
/// call [`ModelMutex::acquire`] in a step and return [`Step::Blocked`] when
/// it fails.
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash)]
pub struct ModelMutex {
    holder: Option<usize>,
}

impl ModelMutex {
    /// Try to take the mutex for `tid`; `false` means blocked.
    pub fn acquire(&mut self, tid: usize) -> bool {
        match self.holder {
            None => {
                self.holder = Some(tid);
                true
            }
            Some(h) => h == tid,
        }
    }

    pub fn release(&mut self, tid: usize) {
        debug_assert_eq!(self.holder, Some(tid), "release by non-holder");
        self.holder = None;
    }
}

/// A condition-variable wait set for models, with *lost-wakeup semantics*:
/// `notify_one` delivers to a member of the wait set, and delivering to a
/// member that is already signalled absorbs (loses) the notification —
/// exactly the signal-stealing behaviour real condvars permit, and the
/// mechanism behind the PR 5 RoundPool race. Delivery is adversarial:
/// an already-signalled waiter is preferred, to surface the worst case
/// deterministically.
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash)]
pub struct ModelCondvar {
    /// (tid, signalled) for each thread currently in the wait set. A thread
    /// stays in the set — and can keep absorbing signals — until it runs
    /// its wake-up step and leaves via [`ModelCondvar::take_signal`].
    waiters: Vec<(usize, bool)>,
}

impl ModelCondvar {
    /// Enter the wait set (the caller must model releasing the mutex).
    pub fn enter_wait(&mut self, tid: usize) {
        debug_assert!(!self.waiters.iter().any(|&(t, _)| t == tid));
        self.waiters.push((tid, false));
    }

    /// Deliver one notification. Prefers an already-signalled waiter (the
    /// adversarial, signal-stealing delivery); with none, signals the
    /// first unsignalled waiter. With an empty wait set the notification
    /// is dropped, as with a real condvar.
    pub fn notify_one(&mut self) {
        if self.waiters.iter().any(|&(_, s)| s) {
            return; // absorbed by an already-signalled waiter: lost.
        }
        if let Some(w) = self.waiters.iter_mut().find(|(_, s)| !*s) {
            w.1 = true;
        }
    }

    /// Deliver to every current waiter.
    pub fn notify_all(&mut self) {
        for w in &mut self.waiters {
            w.1 = true;
        }
    }

    /// If `tid` has been signalled, remove it from the wait set and return
    /// `true`: it should now re-acquire the mutex. `false` means keep
    /// waiting (the caller's step returns [`Step::Blocked`]).
    pub fn take_signal(&mut self, tid: usize) -> bool {
        if let Some(pos) = self.waiters.iter().position(|&(t, s)| t == tid && s) {
            self.waiters.remove(pos);
            true
        } else {
            false
        }
    }
}
