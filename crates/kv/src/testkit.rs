//! A store double for tests that pin a write's requests or race it, and
//! the test-and-set request as a test spells it.

use crate::{BulkFeed, KvRequest, KvResponse, KvStore, NsId, RequestRound, Session};
use piql_analysis::{ordered::Mutex, rank};
use std::cell::RefCell;
use std::io::Write;
use std::panic::{self, AssertUnwindSafe};
use std::sync::mpsc::{self, Receiver, Sender};
use std::thread;
use std::time::{Duration, Instant};

/// How long a picked participant may run, with another parked, before it is
/// blocked for the step; with none parked, all left are deadlocked at 200×.
const GRACE: Duration = Duration::from_millis(100);

/// One thread of a schedule: its work, and what it answers.
pub type Participant<'a, T> = Box<dyn FnOnce() -> T + Send + 'a>;

/// One step of a schedule: the participants parked, and the one picked.
pub type Step = (Vec<usize>, usize);

thread_local! {
    /// This thread's participant: its index, where it says it parked
    /// (`true`) or ended, and where it waits to be picked or stopped.
    static ME: RefCell<Option<Me>> = const { RefCell::new(None) };
}
type Me = (usize, Sender<(usize, bool)>, Receiver<()>);

/// The unwind that stops a participant.
struct Stopped;

/// A [`KvStore`] over `inner` that logs each round with the participant of
/// [`run`] that sent it, parked before it (and each bulk batch) until it is
/// picked. Other threads pass straight through; `point_get` declines.
pub struct Schedule<S> {
    pub inner: S,
    rounds: Mutex<Vec<(Option<usize>, RequestRound)>>,
}

impl<S: KvStore> Schedule<S> {
    pub fn new(inner: S) -> Self {
        let rounds = Mutex::new(rank::KV_TESTKIT, "kv.testkit", Vec::new());
        Schedule { inner, rounds }
    }

    /// The rounds logged since the last call.
    pub fn take(&self) -> Vec<(Option<usize>, RequestRound)> {
        std::mem::take(&mut self.rounds.lock())
    }
}

/// Run `participants`, each parked as it starts: step `i` picks `prefix[i]`
/// (if parked; else, or past it, the lowest parked) until it parks, ends or
/// is blocked. After `limit` steps those parked are stopped. Hands back each
/// answer (`None` if stopped) and the steps: who was parked, who went.
pub fn run<'a, T: Send>(
    participants: Vec<Participant<'a, T>>,
    prefix: &[usize],
    limit: Option<usize>,
) -> (Vec<Option<T>>, Vec<Step>) {
    let (said, events) = mpsc::channel();
    let mut go = Vec::new();
    thread::scope(|scope| {
        let mut threads = Vec::new();
        for (i, work) in participants.into_iter().enumerate() {
            let (go_on, wait) = mpsc::channel();
            let said = said.clone();
            go.push(go_on);
            threads.push(scope.spawn(move || {
                ME.set(Some((i, said.clone(), wait)));
                let end = panic::catch_unwind(AssertUnwindSafe(|| park().map(|_| work())));
                said.send((i, false)).unwrap();
                end
            }));
        }
        let (mut steps, mut parked, mut running) = (Vec::new(), Vec::new(), threads.len());
        loop {
            // a participant the prefix picks parked here before: wait it out
            let (start, next) = (Instant::now(), prefix.get(steps.len()));
            while running > 0 {
                let sure = !parked.is_empty() && next.is_none_or(|p| parked.contains(p));
                let patience = GRACE * if sure { 1 } else { 200 };
                let left = patience.saturating_sub(start.elapsed());
                let Ok((who, parks)) = events.recv_timeout(left) else {
                    break;
                };
                running -= 1;
                parked.extend(parks.then_some(who));
            }
            parked.sort();
            if limit == Some(steps.len()) || running + parked.len() == 0 {
                break;
            }
            let Some(lowest) = parked.first() else {
                let blocked =
                    format!("deadlock: all participants left are blocked after {steps:?}\n");
                let _ = std::io::stderr().write_all(blocked.as_bytes()); // past a test's capture
                std::process::abort()
            };
            let pick = *next.filter(|p| parked.contains(p)).unwrap_or(lowest);
            go[pick].send(()).unwrap();
            steps.push((parked.clone(), pick));
            parked.retain(|&p| p != pick);
            running += 1;
        }
        drop(go); // a participant parked, now or later, is stopped
        let ends = threads.into_iter().map(|t| match t.join().unwrap() {
            Ok(answer) => answer,
            Err(stop) if stop.is::<Stopped>() => None,
            Err(panic) => panic::resume_unwind(panic),
        });
        (ends.collect(), steps)
    })
}

/// Park this thread, if it is a participant, until it is picked (handing
/// back its index) or stopped (unwinding).
fn park() -> Option<usize> {
    ME.with_borrow(|me| {
        let (who, said, wait) = me.as_ref()?;
        said.send((*who, true)).unwrap();
        if wait.recv().is_err() {
            panic::resume_unwind(Box::new(Stopped));
        }
        Some(*who)
    })
}

/// Every schedule, depth first, by stateless replay: `run` sets up afresh
/// and runs the schedule that follows `prefix`; the next prefix picks a
/// higher participant at the last step that parked one. Returns how many.
pub fn explore(mut run: impl FnMut(&[usize]) -> Vec<Step>) -> usize {
    let mut prefix = Vec::new();
    for count in 1.. {
        let steps = run(&prefix);
        let picks: Vec<usize> = steps.iter().map(|(_, pick)| *pick).collect();
        assert!(picks.starts_with(&prefix), "{prefix:?} does not replay");
        let higher = |(ready, pick): &Step| ready.iter().copied().find(|r| r > pick);
        let Some(at) = steps.iter().rposition(|step| higher(step).is_some()) else {
            return count;
        };
        prefix = picks[..at].to_vec();
        prefix.extend(higher(&steps[at]));
    }
    unreachable!()
}

impl<S: KvStore> KvStore for Schedule<S> {
    fn namespace(&self, name: &str) -> NsId {
        self.inner.namespace(name)
    }
    fn execute_round(&self, session: &mut Session, round: RequestRound) -> Vec<KvResponse> {
        let who = park();
        self.rounds.lock().push((who, round.clone()));
        self.inner.execute_round(session, round)
    }
    fn bulk_put(&self, ns: NsId, key: Vec<u8>, value: Vec<u8>) {
        self.inner.bulk_put(ns, key, value)
    }
    fn bulk_put_all(&self, ns: NsId, feed: &mut BulkFeed<'_>) {
        park();
        self.inner.bulk_put_all(ns, feed)
    }
}

/// The test-and-set that stores `value` under `key` in `ns` iff the value
/// stored there is `expect` (absent for `None`): the request's one entry
/// buffer, joined from the two.
pub fn swap(ns: NsId, key: &[u8], value: &[u8], expect: Option<&[u8]>) -> KvRequest {
    KvRequest::TestAndSet {
        ns,
        entry: [key, value].concat(),
        key_len: key.len(),
        expect: expect.map(<[u8]>::to_vec),
    }
}
