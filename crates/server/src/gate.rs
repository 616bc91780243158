//! The one counting gate overload control is built on: a tenant's
//! admission budget and a JSON connection's decode window both let at most
//! `cap` in at once and park or turn away the rest. The [`Door`] is that
//! state as plain data with no clock, with its owner's under the same lock;
//! [`Gate::wait`] is the only clock overload control reads.

use piql_analysis::ordered::{Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// A gate's state, read and changed only under the gate's lock.
pub struct Door<R> {
    /// Arrivals inside: entered and not yet left.
    pub held: u32,
    /// Arrivals parked in [`Gate::wait`].
    pub waiting: u32,
    /// Set when nothing more can be served: a parked arrival wakes to no
    /// room.
    pub closed: bool,
    /// How many may be inside at once; `None` = no limit.
    pub cap: Option<u32>,
    /// What the owner keeps under the same lock: a budget's policy for an
    /// arrival at a full door, a connection's printed answers.
    pub state: R,
}

impl<R> Door<R> {
    /// True when an arrival may enter now.
    pub fn has_room(&self) -> bool {
        !self.closed && self.cap.is_none_or(|cap| self.held < cap)
    }
}

/// A [`Door`] behind one lock, with one condvar for the arrivals parked
/// at it.
pub struct Gate<R> {
    door: Mutex<Door<R>>,
    room: Condvar,
}

impl<R> Gate<R> {
    /// An open, empty gate; `rank` and `name` place its lock in the rank
    /// table.
    pub fn new(rank: u32, name: &'static str, cap: Option<u32>, state: R) -> Self {
        let door = Door {
            held: 0,
            waiting: 0,
            closed: false,
            cap,
            state,
        };
        Gate {
            door: Mutex::new(rank, name, door),
            room: Condvar::new(),
        }
    }

    /// The door, locked: read it, or enter by raising `held`.
    pub fn lock(&self) -> MutexGuard<'_, Door<R>> {
        self.door.lock()
    }

    /// Park at a full `door` until it has room, the gate closes, or
    /// `max_wait` passes (`None`: no deadline; never longer than an hour).
    /// Returns the door still locked: the caller re-reads it to learn
    /// which.
    pub fn wait<'a>(
        &'a self,
        mut door: MutexGuard<'a, Door<R>>,
        max_wait: Option<Duration>,
    ) -> MutexGuard<'a, Door<R>> {
        let deadline = max_wait.map(|wait| Instant::now() + wait.min(Duration::from_secs(3600)));
        door.waiting += 1;
        while !door.closed && !door.has_room() {
            door = match deadline {
                None => self.room.wait(door),
                Some(deadline) => {
                    let left = deadline.saturating_duration_since(Instant::now());
                    if left.is_zero() {
                        break;
                    }
                    self.room.wait_timeout(door, left).0
                }
            };
        }
        door.waiting -= 1;
        door
    }

    /// One arrival left: free its place and wake one waiter.
    pub fn leave(&self) {
        let mut door = self.door.lock();
        door.held = door.held.saturating_sub(1);
        drop(door);
        self.room.notify_one();
    }

    /// Change the door and wake every waiter to re-read it.
    pub fn reset(&self, change: impl FnOnce(&mut Door<R>)) {
        change(&mut self.door.lock());
        self.room.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    /// Closing the gate wakes an arrival parked with no deadline: it finds
    /// no room, and the door counts no one waiting.
    #[test]
    fn closing_wakes_a_parked_arrival_to_no_room() {
        let gate = Arc::new(Gate::new(0, "test.gate", Some(0), ()));
        let parked = {
            let gate = gate.clone();
            std::thread::spawn(move || {
                let door = gate.wait(gate.lock(), None);
                (door.has_room(), door.closed)
            })
        };
        while gate.lock().waiting == 0 {
            std::thread::yield_now();
        }
        gate.reset(|door| door.closed = true);
        assert_eq!(parked.join().ok(), Some((false, true)));
        assert_eq!(gate.lock().waiting, 0);
    }

    /// A wait with a deadline parks until it, even one under a
    /// millisecond, and gives up still at a full door.
    #[test]
    fn a_deadline_ends_the_wait_with_no_room() {
        let gate = Gate::new(0, "test.gate", Some(1), ());
        gate.lock().held = 1;
        let max_wait = Duration::from_micros(300);
        let start = Instant::now();
        let door = gate.wait(gate.lock(), Some(max_wait));
        assert!(start.elapsed() >= max_wait);
        assert!(!door.has_room());
        assert_eq!(door.waiting, 0);
    }
}
