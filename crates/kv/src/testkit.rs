//! A store double for tests that pin a write's requests or race it, and
//! the test-and-set request as a test spells it.

use crate::{KvRequest, KvResponse, KvStore, NsId, RequestRound, Session};
use piql_analysis::{ordered::Mutex, rank};

type Hook<S> = (fn(&[KvRequest]) -> bool, Box<dyn FnOnce(&S) + Send>);

/// A [`KvStore`] over `inner` that records every round, in order, and runs
/// a hook on `inner` once, just before the first round a predicate matches.
/// Only the trait's required methods are its own, so `execute_one` and
/// `read_round` arrive as the rounds they stand for.
pub struct Interleave<S> {
    pub inner: S,
    state: Mutex<(Vec<RequestRound>, Option<Hook<S>>)>,
}

impl<S: KvStore> Interleave<S> {
    pub fn new(inner: S) -> Self {
        let state = Mutex::new(rank::KV_TESTKIT, "kv.testkit", (Vec::new(), None));
        Interleave { inner, state }
    }

    /// Run `hook` before the next round `when` matches.
    pub fn before(&self, when: fn(&[KvRequest]) -> bool, hook: impl FnOnce(&S) + Send + 'static) {
        self.state.lock().1 = Some((when, Box::new(hook)));
    }

    /// The rounds recorded since the last call.
    pub fn take(&self) -> Vec<RequestRound> {
        std::mem::take(&mut self.state.lock().0)
    }
}

impl<S: KvStore> KvStore for Interleave<S> {
    fn namespace(&self, name: &str) -> NsId {
        self.inner.namespace(name)
    }
    fn execute_round(&self, session: &mut Session, round: RequestRound) -> Vec<KvResponse> {
        let hook = {
            let mut state = self.state.lock();
            state.0.push(round.clone());
            state.1.take_if(|(when, _)| when(&round))
        };
        if let Some((_, hook)) = hook {
            hook(&self.inner);
        }
        self.inner.execute_round(session, round)
    }
    fn bulk_put(&self, ns: NsId, key: Vec<u8>, value: Vec<u8>) {
        self.inner.bulk_put(ns, key, value)
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
