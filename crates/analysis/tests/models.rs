//! The historical-race regression pairing: each model must *fail* with its
//! fix reverted (the explorer rediscovers the shipped bug) and *pass* with
//! the current algorithm, so the models stay honest in both directions.
//! [`GateModel`], defined here, pairs the same way over a seeded bug
//! rather than a shipped one.

use piql_analysis::check::{explore, explore_random, Model, ModelCondvar, ModelMutex, Step};
use piql_analysis::models::{BatonPassModel, PoolShutdownModel, WalRotationModel};

const MAX_STEPS: usize = 256;

#[test]
fn baton_pass_race_rediscovered_with_fix_reverted() {
    let violation = explore(&BatonPassModel::new(false), MAX_STEPS)
        .expect_err("the pre-PR 5 worker loop must lose a wakeup in some schedule");
    assert!(
        violation.message.contains("lost wakeup"),
        "unexpected violation: {violation}"
    );
    assert!(
        !violation.schedule.is_empty(),
        "schedule should be reported"
    );
}

#[test]
fn baton_pass_fix_passes_every_schedule() {
    let stats = explore(&BatonPassModel::new(true), MAX_STEPS)
        .unwrap_or_else(|v| panic!("fixed baton-pass model violated: {v}"));
    // Sanity: the explorer genuinely explored a branching schedule space.
    assert!(
        stats.explored > 50,
        "suspiciously small exploration: {stats:?}"
    );
}

#[test]
fn wal_rotation_race_rediscovered_with_fix_reverted() {
    let violation = explore(&WalRotationModel::new(false), MAX_STEPS)
        .expect_err("the pre-review committer must publish an unsynced watermark");
    assert!(
        violation.message.contains("durable watermark")
            || violation.message.contains("segment layout"),
        "unexpected violation: {violation}"
    );
}

#[test]
fn wal_rotation_fix_passes_every_schedule() {
    let stats = explore(&WalRotationModel::new(true), MAX_STEPS)
        .unwrap_or_else(|v| panic!("fixed WAL rotation model violated: {v}"));
    assert!(
        stats.explored > 100,
        "suspiciously small exploration: {stats:?}"
    );
}

#[test]
fn random_exploration_agrees_with_exhaustive() {
    // Seeded-random mode finds the WAL race too (deterministically, given
    // the fixed seed), and clears the fixed model.
    explore_random(&WalRotationModel::new(false), 0x5EED, 4000, MAX_STEPS)
        .expect_err("random exploration should hit the rotation race");
    explore_random(&WalRotationModel::new(true), 0x5EED, 4000, MAX_STEPS)
        .unwrap_or_else(|v| panic!("fixed model violated under random schedules: {v}"));
    explore_random(&BatonPassModel::new(false), 0x5EED, 4000, MAX_STEPS)
        .expect_err("random exploration should hit the baton-pass race");
    explore_random(&BatonPassModel::new(true), 0x5EED, 4000, MAX_STEPS)
        .unwrap_or_else(|v| panic!("fixed model violated under random schedules: {v}"));
}

#[test]
fn pool_shutdown_race_rediscovered_with_fix_reverted() {
    let violation = explore(&PoolShutdownModel::new(false), MAX_STEPS)
        .expect_err("the pre-PR 10 shutdown path must strand a parked worker");
    assert!(
        violation.message.contains("shutdown lost"),
        "unexpected violation: {violation}"
    );
}

#[test]
fn pool_shutdown_fix_passes_every_schedule() {
    explore(&PoolShutdownModel::new(true), MAX_STEPS)
        .unwrap_or_else(|v| panic!("fixed shutdown model violated: {v}"));
}

#[test]
fn pool_shutdown_random_agrees_with_exhaustive() {
    explore_random(&PoolShutdownModel::new(false), 0x5EED, 4000, MAX_STEPS)
        .expect_err("random exploration should hit the shutdown race");
    explore_random(&PoolShutdownModel::new(true), 0x5EED, 4000, MAX_STEPS)
        .unwrap_or_else(|v| panic!("fixed model violated under random schedules: {v}"));
}

/// The locking skeleton of `piql-server`'s counting gate (`gate.rs`), the
/// one mechanism behind the tenant budget and the connection window.
///
/// The door starts full: one arrival is inside at capacity 1. Two more
/// arrivals park at it; a leaver frees the place and wakes one
/// (`leave`'s `notify_one`); a closer shuts the gate (`reset`). Every
/// arrival must end up inside or refused: a door change has to wake every
/// parked arrival, because `leave`'s notification may already have landed
/// on the one that the close also reaches. The seeded bug: `reset` wakes
/// one arrival with `notify_one`, so with two parked, the close is
/// absorbed by the arrival the leaver already signalled and the other
/// parks forever.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct GateModel {
    /// `true` = `reset` wakes every waiter (`notify_all`); `false` = one.
    fix_enabled: bool,
    lock: ModelMutex,
    room: ModelCondvar,
    held: u8,
    waiting: u8,
    closed: bool,
    /// Per arrival: 0 lock, 1 check, 2 parked, 3 relock, 4 finished.
    arrival_pc: [u8; 2],
    parked: [bool; 2],
    leaver_pc: u8,
    closer_pc: u8,
}

/// Thread ids: 0..=1 = arrivals, 2 = leaver, 3 = closer.
impl GateModel {
    const CAP: u8 = 1;

    fn new(fix_enabled: bool) -> Self {
        GateModel {
            fix_enabled,
            lock: ModelMutex::default(),
            room: ModelCondvar::default(),
            held: Self::CAP,
            waiting: 0,
            closed: false,
            arrival_pc: [0, 0],
            parked: [false, false],
            leaver_pc: 0,
            closer_pc: 0,
        }
    }

    /// `Gate::wait`'s loop and the owner's re-read, one atomic step each.
    fn step_arrival(&mut self, a: usize) -> Step {
        match self.arrival_pc[a] {
            0 | 3 => {
                if !self.lock.acquire(a) {
                    return Step::Blocked;
                }
                self.arrival_pc[a] = 1;
            }
            // holding the lock: park at a full open door, else go in or
            // (closed) turn away
            1 => {
                if !self.closed && self.held >= Self::CAP {
                    if !self.parked[a] {
                        self.parked[a] = true;
                        self.waiting += 1;
                    }
                    self.room.enter_wait(a);
                    self.arrival_pc[a] = 2;
                } else {
                    if self.parked[a] {
                        self.parked[a] = false;
                        self.waiting -= 1;
                    }
                    if !self.closed {
                        self.held += 1;
                    }
                    self.arrival_pc[a] = 4;
                }
                self.lock.release(a);
            }
            2 => {
                if !self.room.take_signal(a) {
                    return Step::Blocked;
                }
                self.arrival_pc[a] = 3;
            }
            _ => return Step::Done,
        }
        Step::Ran
    }

    /// `Gate::leave`: free the place under the lock, then wake one.
    fn step_leaver(&mut self) -> Step {
        match self.leaver_pc {
            0 => {
                if !self.lock.acquire(2) {
                    return Step::Blocked;
                }
                self.held -= 1;
                self.lock.release(2);
            }
            1 => self.room.notify_one(),
            _ => return Step::Done,
        }
        self.leaver_pc += 1;
        Step::Ran
    }

    /// `Gate::reset(|door| door.closed = true)`.
    fn step_closer(&mut self) -> Step {
        match self.closer_pc {
            0 => {
                if !self.lock.acquire(3) {
                    return Step::Blocked;
                }
                self.closed = true;
                self.lock.release(3);
            }
            1 if self.fix_enabled => self.room.notify_all(),
            1 => self.room.notify_one(),
            _ => return Step::Done,
        }
        self.closer_pc += 1;
        Step::Ran
    }
}

impl Model for GateModel {
    fn threads(&self) -> usize {
        4
    }

    fn step(&mut self, tid: usize) -> Step {
        match tid {
            0 | 1 => self.step_arrival(tid),
            2 => self.step_leaver(),
            _ => self.step_closer(),
        }
    }

    fn invariant(&self) -> Result<(), String> {
        if self.held > Self::CAP {
            return Err(format!(
                "{} inside a door of capacity {}",
                self.held,
                Self::CAP
            ));
        }
        Ok(())
    }

    fn on_stuck(&self) -> Result<(), String> {
        Err(format!(
            "lost wakeup: {} arrival(s) parked at a door closed={} with {} inside",
            self.waiting, self.closed, self.held
        ))
    }
}

#[test]
fn gate_reset_waking_one_strands_a_parked_arrival() {
    let violation = explore(&GateModel::new(false), MAX_STEPS)
        .expect_err("a close that wakes one of two parked arrivals must strand the other");
    assert!(
        violation.message.contains("lost wakeup"),
        "unexpected violation: {violation}"
    );
}

#[test]
fn gate_fix_passes_every_schedule() {
    let stats = explore(&GateModel::new(true), MAX_STEPS)
        .unwrap_or_else(|v| panic!("fixed gate model violated: {v}"));
    assert!(
        stats.explored > 50,
        "suspiciously small exploration: {stats:?}"
    );
    explore_random(&GateModel::new(true), 0x5EED, 4000, MAX_STEPS)
        .unwrap_or_else(|v| panic!("fixed gate model violated under random schedules: {v}"));
}
