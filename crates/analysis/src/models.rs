//! Regression models for the two concurrency bugs this workspace has
//! actually shipped. Each model is the locking skeleton of the real
//! algorithm, small enough for [`crate::check::explore`] to enumerate
//! every schedule, and carries a `fix_enabled` switch: with the fix
//! reverted the explorer finds the historical race; with it in place every
//! schedule passes. The paired tests live in `tests/models.rs`.

use crate::check::{Model, ModelCondvar, ModelMutex, Step};

// ---------------------------------------------------------------------------
// PR 5: RoundPool condvar baton-pass race
// ---------------------------------------------------------------------------

/// The RoundPool submit/worker handoff (`crates/kv/src/pool.rs`).
///
/// A submitter pushes two tasks, calling `notify_one` after each. Two
/// workers pop tasks; a worker that pops then runs its task for a long
/// time (modelled as exiting). The historical bug: both notifications can
/// land on the same parked worker — a condvar permits a signalled-but-not-
/// yet-awake thread to absorb further signals — so the second task strands
/// while the other worker parks forever. The fix is the baton pass: a
/// worker that pops a task while the queue is still non-empty re-notifies
/// before running, handing the baton to a genuinely unsignalled waiter.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct BatonPassModel {
    /// `true` = current code (pop re-notifies when queue stays non-empty);
    /// `false` = the pre-PR 5 worker loop.
    pub fix_enabled: bool,
    queue: u8,
    tasks_run: u8,
    mutex: ModelMutex,
    cv: ModelCondvar,
    submitter_pc: u8,
    worker_pc: [u8; 2],
}

/// Thread ids: 0 = submitter, 1..=2 = workers.
impl BatonPassModel {
    pub fn new(fix_enabled: bool) -> Self {
        BatonPassModel {
            fix_enabled,
            queue: 0,
            tasks_run: 0,
            mutex: ModelMutex::default(),
            cv: ModelCondvar::default(),
            submitter_pc: 0,
            worker_pc: [0, 0],
        }
    }

    fn step_submitter(&mut self) -> Step {
        match self.submitter_pc {
            // Two rounds of: lock, push, unlock, notify_one.
            0 | 3 => {
                if !self.mutex.acquire(0) {
                    return Step::Blocked;
                }
                self.submitter_pc += 1;
                Step::Ran
            }
            1 | 4 => {
                self.queue += 1;
                self.mutex.release(0);
                self.submitter_pc += 1;
                Step::Ran
            }
            2 | 5 => {
                self.cv.notify_one();
                self.submitter_pc += 1;
                Step::Ran
            }
            _ => Step::Done,
        }
    }

    fn step_worker(&mut self, w: usize) -> Step {
        let tid = w + 1;
        match self.worker_pc[w] {
            0 => {
                if !self.mutex.acquire(tid) {
                    return Step::Blocked;
                }
                self.worker_pc[w] = 1;
                Step::Ran
            }
            // Holding the queue lock: pop or park.
            1 => {
                if self.queue > 0 {
                    self.queue -= 1;
                    if self.fix_enabled && self.queue > 0 {
                        // Baton pass: more work remains and this worker is
                        // about to go run a task, so wake a peer now.
                        self.cv.notify_one();
                    }
                    self.mutex.release(tid);
                    self.worker_pc[w] = 2;
                } else {
                    self.cv.enter_wait(tid);
                    self.mutex.release(tid);
                    self.worker_pc[w] = 3;
                }
                Step::Ran
            }
            // Run the task (outside the lock); the task is long, so the
            // worker contributes nothing further to the handoff.
            2 => {
                self.tasks_run += 1;
                self.worker_pc[w] = 5;
                Step::Ran
            }
            // Parked: wake only on a signal addressed to us.
            3 => {
                if !self.cv.take_signal(tid) {
                    return Step::Blocked;
                }
                self.worker_pc[w] = 4;
                Step::Ran
            }
            // Awake: re-acquire the lock and re-check the queue.
            4 => {
                if !self.mutex.acquire(tid) {
                    return Step::Blocked;
                }
                self.worker_pc[w] = 1;
                Step::Ran
            }
            _ => Step::Done,
        }
    }
}

impl Model for BatonPassModel {
    fn threads(&self) -> usize {
        3
    }

    fn step(&mut self, tid: usize) -> Step {
        match tid {
            0 => self.step_submitter(),
            w => self.step_worker(w - 1),
        }
    }

    fn on_stuck(&self) -> Result<(), String> {
        if self.queue > 0 {
            Err(format!(
                "lost wakeup: {} task(s) queued while every remaining worker parks \
                 (ran {} of 2)",
                self.queue, self.tasks_run
            ))
        } else {
            Ok(())
        }
    }
}

// ---------------------------------------------------------------------------
// PR 6: WAL rotation vs. group commit
// ---------------------------------------------------------------------------

/// The WAL group-commit/rotation interaction (`crates/durability/src/wal.rs`).
///
/// Two writers each stage a record in `pending`, then commit it: a commit
/// whose LSN the durable watermark does not cover takes `segment`,
/// rechecks, and leads — takes the staged chunk from `pending`, writes and
/// syncs it, publishes the watermark. `rotate_to` takes `segment`, then
/// `pending`, syncs whatever is staged into the old segment, starts a new
/// one and publishes `durable = appended`.
///
/// The historical bug (in the committer thread of the time): the
/// chunk left `pending` before its writer held the file. In that window a
/// rotation could run in full — sealing the old segment and publishing a
/// watermark that covered the chunk still in memory. A crash then loses
/// acknowledged records, and the late chunk lands in the wrong segment at
/// the wrong offsets. The shipped order rules it out: `segment` before
/// `pending`, so a chunk leaves `pending` only for the segment's holder.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct WalRotationModel {
    /// `true` = the shipped order (a leader takes `segment`, then the
    /// chunk); `false` = the chunk taken before `segment`.
    pub fix_enabled: bool,
    pending: ModelMutex,
    segment: ModelMutex,
    /// Staged records (LSNs; each record is one offset unit).
    buf: Vec<u64>,
    /// LSN high-water mark of appended records.
    appended: u64,
    /// Synced on-disk records, per segment, in write order.
    segments: Vec<Vec<u64>>,
    /// Published durable watermark.
    durable: u64,
    writer_pc: [u8; 2],
    writer_lsn: [u64; 2],
    /// What a leading writer took from `pending`, and the LSN it ends at.
    writer_chunk: [Vec<u64>; 2],
    writer_target: [u64; 2],
    rotator_pc: u8,
}

/// Thread ids: 0..=1 = writers, 2 = rotator.
impl WalRotationModel {
    pub fn new(fix_enabled: bool) -> Self {
        WalRotationModel {
            fix_enabled,
            pending: ModelMutex::default(),
            segment: ModelMutex::default(),
            buf: Vec::new(),
            appended: 0,
            segments: vec![Vec::new()],
            durable: 0,
            writer_pc: [0, 0],
            writer_lsn: [0, 0],
            writer_chunk: [Vec::new(), Vec::new()],
            writer_target: [0, 0],
            rotator_pc: 0,
        }
    }

    /// Take the staged chunk and the LSN it ends at (`pending` held).
    fn take_chunk(&mut self, w: usize) {
        self.writer_chunk[w] = std::mem::take(&mut self.buf);
        self.writer_target[w] = self.appended;
    }

    /// `append`, then `commit`.
    fn step_writer(&mut self, w: usize) -> Step {
        match self.writer_pc[w] {
            0 => {
                if !self.pending.acquire(w) {
                    return Step::Blocked;
                }
                self.writer_pc[w] = 1;
            }
            // append(): stage under `pending`
            1 => {
                self.appended += 1;
                self.writer_lsn[w] = self.appended;
                self.buf.push(self.appended);
                self.pending.release(w);
                self.writer_pc[w] = 2;
            }
            // commit(): done when covered, else queue to lead
            2 if self.durable >= self.writer_lsn[w] => self.writer_pc[w] = 7,
            2 if self.fix_enabled => {
                if !self.segment.acquire(w) {
                    return Step::Blocked;
                }
                self.writer_pc[w] = 3;
            }
            2 => {
                // Bug: take the chunk first, with only `pending` held; a
                // rotation can now run before this writer has the file.
                if !self.pending.acquire(w) {
                    return Step::Blocked;
                }
                self.take_chunk(w);
                self.pending.release(w);
                self.writer_pc[w] = 6;
            }
            // holding `segment`: a leader ahead may have covered us
            3 if self.durable >= self.writer_lsn[w] => {
                self.segment.release(w);
                self.writer_pc[w] = 7;
            }
            3 => {
                if !self.pending.acquire(w) {
                    return Step::Blocked;
                }
                self.take_chunk(w);
                self.pending.release(w);
                self.writer_pc[w] = 4;
            }
            // write + fsync the chunk into the current segment
            4 => {
                let seg = self.segments.last_mut().expect("segment list nonempty");
                seg.append(&mut self.writer_chunk[w]);
                self.writer_pc[w] = 5;
            }
            5 => {
                self.durable = self.durable.max(self.writer_target[w]);
                self.segment.release(w);
                self.writer_pc[w] = 7;
            }
            6 => {
                if !self.segment.acquire(w) {
                    return Step::Blocked;
                }
                self.writer_pc[w] = 4;
            }
            _ => return Step::Done,
        }
        Step::Ran
    }

    /// `rotate_to`: `segment`, then `pending`; sync what is staged, seal
    /// the segment, publish the watermark.
    fn step_rotator(&mut self) -> Step {
        let tid = 2;
        match self.rotator_pc {
            0 => {
                if !self.segment.acquire(tid) {
                    return Step::Blocked;
                }
            }
            1 => {
                if !self.pending.acquire(tid) {
                    return Step::Blocked;
                }
                let mut chunk = std::mem::take(&mut self.buf);
                let seg = self.segments.last_mut().expect("segment list nonempty");
                seg.append(&mut chunk);
                self.durable = self.durable.max(self.appended);
                self.segments.push(Vec::new());
            }
            2 => {
                self.pending.release(tid);
                self.segment.release(tid);
            }
            _ => return Step::Done,
        }
        self.rotator_pc += 1;
        Step::Ran
    }
}

impl Model for WalRotationModel {
    fn threads(&self) -> usize {
        3
    }

    fn step(&mut self, tid: usize) -> Step {
        match tid {
            0 | 1 => self.step_writer(tid),
            _ => self.step_rotator(),
        }
    }

    fn invariant(&self) -> Result<(), String> {
        // Durability: every LSN the published watermark covers must be in
        // a synced segment. This is exactly what the historical race broke
        // — rotation published `durable = appended` while an acknowledged
        // chunk sat in a writer's memory.
        for lsn in 1..=self.durable {
            if !self.segments.iter().any(|s| s.contains(&lsn)) {
                return Err(format!(
                    "durable watermark {} covers lsn {lsn}, which is not in any \
                     synced segment (segments: {:?})",
                    self.durable, self.segments
                ));
            }
        }
        // Layout: the concatenated segments must hold contiguous LSNs in
        // order — a late chunk writing into the wrong segment breaks this.
        let flat: Vec<u64> = self.segments.iter().flatten().copied().collect();
        for (i, lsn) in flat.iter().enumerate() {
            if *lsn != i as u64 + 1 {
                return Err(format!(
                    "segment layout corrupt: expected lsn {} at offset {i}, found \
                     {lsn} (segments: {:?})",
                    i + 1,
                    self.segments
                ));
            }
        }
        Ok(())
    }

    fn on_stuck(&self) -> Result<(), String> {
        // no writer parks: one that is not covered leads, so a stuck
        // state is a deadlock
        Err(format!(
            "deadlock: writers at {:?}, rotator at {}",
            self.writer_pc, self.rotator_pc
        ))
    }
}

// ---------------------------------------------------------------------------
// PR 10: RoundPool shutdown vs. a parking worker
// ---------------------------------------------------------------------------

/// The RoundPool shutdown handshake (`crates/kv/src/pool.rs`).
///
/// An idle worker takes the queue lock, checks `shutdown`, and parks on
/// `task_ready` — all in one critical section. `Drop` sets `shutdown` and
/// calls `notify_all`, then joins every worker.
///
/// The historical bug: `Drop` stored the flag without holding the queue
/// lock. If the store + notify landed between the worker's check and its
/// park, the notification found no waiter, the worker parked forever, and
/// `Drop`'s join hung the dropping thread. The fix: the flag is stored
/// while holding the queue lock, so it cannot change between a worker's
/// check and its park.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct PoolShutdownModel {
    /// `true` = current code (store under the queue lock); `false` = the
    /// pre-PR 10 shutdown path.
    pub fix_enabled: bool,
    queue_mutex: ModelMutex,
    task_ready: ModelCondvar,
    shutdown: bool,
    worker_exited: bool,
    worker_pc: u8,
    dropper_pc: u8,
}

/// Thread ids: 0 = worker, 1 = dropper.
impl PoolShutdownModel {
    pub fn new(fix_enabled: bool) -> Self {
        PoolShutdownModel {
            fix_enabled,
            queue_mutex: ModelMutex::default(),
            task_ready: ModelCondvar::default(),
            shutdown: false,
            worker_exited: false,
            worker_pc: 0,
            dropper_pc: 0,
        }
    }

    fn step_worker(&mut self) -> Step {
        match self.worker_pc {
            // Loop top: acquire the queue lock.
            0 => {
                if !self.queue_mutex.acquire(0) {
                    return Step::Blocked;
                }
                self.worker_pc = 1;
                Step::Ran
            }
            // Queue empty (this model has no tasks): read the flag. The
            // read and the park below are separate steps because the flag
            // is an atomic, not data the lock owns — only a store that
            // takes the lock is kept out from between them.
            1 => {
                if self.shutdown {
                    self.queue_mutex.release(0);
                    self.worker_exited = true;
                    self.worker_pc = 4;
                } else {
                    self.worker_pc = 2;
                }
                Step::Ran
            }
            // Park: atomically enter the wait and release the lock.
            2 => {
                self.task_ready.enter_wait(0);
                self.queue_mutex.release(0);
                self.worker_pc = 3;
                Step::Ran
            }
            // Parked: wake only on a delivered signal, then loop.
            3 => {
                if !self.task_ready.take_signal(0) {
                    return Step::Blocked;
                }
                self.worker_pc = 0;
                Step::Ran
            }
            _ => Step::Done,
        }
    }

    fn step_dropper(&mut self) -> Step {
        match self.dropper_pc {
            // Set the flag. Fixed code holds the queue lock around the
            // store; the old code stored it with no lock.
            0 => {
                if self.fix_enabled {
                    if !self.queue_mutex.acquire(1) {
                        return Step::Blocked;
                    }
                    self.shutdown = true;
                    self.queue_mutex.release(1);
                } else {
                    self.shutdown = true;
                }
                self.dropper_pc = 1;
                Step::Ran
            }
            // Wake every currently parked worker.
            1 => {
                self.task_ready.notify_all();
                self.dropper_pc = 2;
                Step::Ran
            }
            // Join: blocked until the worker has exited its loop.
            2 => {
                if !self.worker_exited {
                    return Step::Blocked;
                }
                self.dropper_pc = 3;
                Step::Done
            }
            _ => Step::Done,
        }
    }
}

impl Model for PoolShutdownModel {
    fn threads(&self) -> usize {
        2
    }

    fn step(&mut self, tid: usize) -> Step {
        match tid {
            0 => self.step_worker(),
            _ => self.step_dropper(),
        }
    }

    fn on_stuck(&self) -> Result<(), String> {
        if !self.worker_exited {
            Err(format!(
                "shutdown lost: worker parked forever (pc {}) while drop blocks in \
                 join with shutdown={} already set",
                self.worker_pc, self.shutdown
            ))
        } else {
            Ok(())
        }
    }
}
