//! The key/value-store operation vocabulary (§3).
//!
//! PIQL requires exactly this from its store: get/put/delete, *range*
//! requests (for index scans with data locality), count-range (cardinality
//! enforcement, §7.2), and test-and-set (uniqueness constraints and
//! conditional updates). Requests are grouped into [`RequestRound`]s — all
//! requests of a round are issued in parallel, which is how the execution
//! engine's Parallel strategy gets its speedup (§8.5).

/// Namespace handle (one per table / index).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NsId(pub u32);

/// One key/value-store request.
#[derive(Debug, Clone, PartialEq)]
pub enum KvRequest {
    Get {
        ns: NsId,
        key: Vec<u8>,
    },
    Put {
        ns: NsId,
        key: Vec<u8>,
        value: Vec<u8>,
    },
    Delete {
        ns: NsId,
        key: Vec<u8>,
    },
    /// Contiguous scan of `[start, end)` (or down from `end` when
    /// `reverse`), returning at most `limit` entries.
    GetRange {
        ns: NsId,
        start: Vec<u8>,
        /// Exclusive upper bound; `None` = to the end of the namespace.
        end: Option<Vec<u8>>,
        limit: Option<u64>,
        reverse: bool,
    },
    /// Number of entries in `[start, end)`.
    CountRange {
        ns: NsId,
        start: Vec<u8>,
        end: Option<Vec<u8>>,
    },
    /// Atomically store `entry` — its key, `entry[..key_len]`, then its
    /// value — iff the key's current value equals `expect`; `expect = None`
    /// requires absence. The entry is one buffer, as a bulk feed pushes
    /// one ([`BulkFeed`]), which a `LiveCluster` keeps as it is.
    TestAndSet {
        ns: NsId,
        entry: Vec<u8>,
        key_len: usize,
        expect: Option<Vec<u8>>,
    },
}

impl KvRequest {
    pub fn is_write(&self) -> bool {
        matches!(
            self,
            KvRequest::Put { .. } | KvRequest::Delete { .. } | KvRequest::TestAndSet { .. }
        )
    }

    pub fn ns(&self) -> NsId {
        match self {
            KvRequest::Get { ns, .. }
            | KvRequest::Put { ns, .. }
            | KvRequest::Delete { ns, .. }
            | KvRequest::GetRange { ns, .. }
            | KvRequest::CountRange { ns, .. }
            | KvRequest::TestAndSet { ns, .. } => *ns,
        }
    }
}

/// One `(key, value)` entry as an owned pair — what exports and tests
/// trade in. Range answers travel as [`Entries`].
pub type KvEntry = (Vec<u8>, Vec<u8>);

/// A bulk batch ([`crate::KvStore::bulk_put_all`]), pushed: called once, it
/// hands the sink each entry as one buffer — the key, then the value — and
/// where the key ends. A `LiveCluster` entry lays out its bytes so, and
/// adopts a buffer sized exactly as it is.
pub type BulkFeed<'a> = dyn FnMut(&mut dyn FnMut(Vec<u8>, usize)) + 'a;

/// The entries of one range answer, in scan order, packed: every key and
/// value back to back in one byte buffer, and where each ends in one
/// offsets vector. A backend fills it while it holds the shard — two
/// allocations whatever the number of entries — and the engine reads keys
/// and values where they lie.
#[derive(Clone, Default, PartialEq, Eq)]
pub struct Entries {
    /// `key0 value0 key1 value1 …`, nothing between them.
    payload: Vec<u8>,
    /// Per entry, where its key and its value end in `payload`.
    ends: Vec<[usize; 2]>,
}

impl Entries {
    pub fn new() -> Self {
        Entries::default()
    }

    /// An empty block with room for exactly `entries` entries of `bytes`
    /// key and value bytes in all.
    pub(crate) fn with_capacity(entries: usize, bytes: usize) -> Self {
        Entries {
            payload: Vec::with_capacity(bytes),
            ends: Vec::with_capacity(entries),
        }
    }

    /// Empty the block, keeping its buffers, and make room for exactly
    /// `entries` entries of `bytes` key and value bytes in all.
    fn reset(&mut self, entries: usize, bytes: usize) {
        self.payload.clear();
        self.ends.clear();
        self.payload.reserve_exact(bytes);
        self.ends.reserve_exact(entries);
    }

    /// Bytes the block's buffers have room for.
    pub(crate) fn capacity_bytes(&self) -> usize {
        self.payload.capacity() + self.ends.capacity() * std::mem::size_of::<[usize; 2]>()
    }

    pub fn len(&self) -> usize {
        self.ends.len()
    }

    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// Key and value bytes shipped — the `bytes` figure of session stats.
    pub fn payload_len(&self) -> usize {
        self.payload.len()
    }

    /// Entry `i` as `(key, value)`. Panics when `i >= len()`, like a slice.
    pub fn get(&self, i: usize) -> (&[u8], &[u8]) {
        let start = match i {
            0 => 0,
            _ => self.ends[i - 1][1],
        };
        let [key_end, value_end] = self.ends[i];
        (
            &self.payload[start..key_end],
            &self.payload[key_end..value_end],
        )
    }

    pub fn last(&self) -> Option<(&[u8], &[u8])> {
        self.len().checked_sub(1).map(|i| self.get(i))
    }

    pub fn iter(&self) -> EntriesIter<'_> {
        EntriesIter {
            entries: self,
            range: 0..self.len(),
        }
    }

    /// Append `entries`, sized exactly: they are counted and summed on a
    /// first pass, room for just that is reserved, and a second pass
    /// copies — one allocation per buffer whatever the number of entries,
    /// and no capacity beyond what is used. Backends call this while they
    /// hold the map the iterator walks.
    pub fn extend_exact<'e>(
        &mut self,
        entries: impl Iterator<Item = (&'e [u8], &'e [u8])> + Clone,
    ) {
        let (n, payload) = entries.clone().fold((0, 0), |(n, bytes), (k, v)| {
            (n + 1, bytes + k.len() + v.len())
        });
        self.ends.reserve_exact(n);
        self.payload.reserve_exact(payload);
        for (k, v) in entries {
            self.push(k, v);
        }
    }

    pub fn push(&mut self, key: &[u8], value: &[u8]) {
        self.payload.extend_from_slice(key);
        let key_end = self.payload.len();
        self.payload.extend_from_slice(value);
        self.ends.push([key_end, self.payload.len()]);
    }

    /// Move `other`'s entries behind these. Appending to an empty block
    /// takes `other`'s buffers as they are.
    pub fn append(&mut self, other: Entries) {
        if self.is_empty() {
            *self = other;
            return;
        }
        let base = self.payload.len();
        self.payload.extend_from_slice(&other.payload);
        self.ends
            .extend(other.ends.iter().map(|[k, v]| [base + k, base + v]));
    }

    /// The entries as owned pairs.
    pub fn to_vec(&self) -> Vec<KvEntry> {
        self.iter().map(|(k, v)| (k.to_vec(), v.to_vec())).collect()
    }
}

impl From<Vec<KvEntry>> for Entries {
    fn from(owned: Vec<KvEntry>) -> Self {
        let mut out = Entries::new();
        out.extend_exact(owned.iter().map(|(k, v)| (k.as_slice(), v.as_slice())));
        out
    }
}

impl<'a> IntoIterator for &'a Entries {
    type Item = (&'a [u8], &'a [u8]);
    type IntoIter = EntriesIter<'a>;

    fn into_iter(self) -> EntriesIter<'a> {
        self.iter()
    }
}

/// Prints as the list of pairs it holds.
impl std::fmt::Debug for Entries {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// Borrowing iterator over an [`Entries`] block.
#[derive(Debug, Clone)]
pub struct EntriesIter<'a> {
    entries: &'a Entries,
    range: std::ops::Range<usize>,
}

impl<'a> Iterator for EntriesIter<'a> {
    type Item = (&'a [u8], &'a [u8]);

    fn next(&mut self) -> Option<Self::Item> {
        self.range.next().map(|i| self.entries.get(i))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.range.size_hint()
    }
}

impl ExactSizeIterator for EntriesIter<'_> {}

/// One response, positionally matching the request.
#[derive(Debug, Clone, PartialEq)]
pub enum KvResponse {
    /// Get: the value, if present.
    Value(Option<Vec<u8>>),
    /// GetRange: entries in scan order.
    Entries(Entries),
    /// CountRange.
    Count(u64),
    /// TestAndSet: whether the swap applied, and, when it did not, the
    /// value stored (a swap that applied stored the caller's own value).
    TasResult {
        success: bool,
        current: Option<Vec<u8>>,
    },
    /// Put/Delete acknowledgement.
    Done,
}

/// A round answered out of shape — an engine bug or a misbehaving backend.
/// Engine call sites surface this as a query error, instead of panicking
/// mid-connection or answering fewer rows.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MalformedRound {
    /// A response of the wrong variant for its positional request.
    Mismatch {
        /// Variant the caller needed.
        expected: &'static str,
        /// Variant actually received.
        got: &'static str,
    },
    /// Not one response per request.
    Count { requests: usize, responses: usize },
}

impl std::fmt::Display for MalformedRound {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MalformedRound::Mismatch { expected, got } => {
                write!(
                    f,
                    "malformed round: expected {expected} response, got {got}"
                )
            }
            MalformedRound::Count {
                requests,
                responses,
            } => write!(
                f,
                "malformed round: {responses} responses to {requests} requests"
            ),
        }
    }
}

impl std::error::Error for MalformedRound {}

impl KvResponse {
    fn variant_name(&self) -> &'static str {
        match self {
            KvResponse::Value(_) => "Value",
            KvResponse::Entries(_) => "Entries",
            KvResponse::Count(_) => "Count",
            KvResponse::TasResult { .. } => "TasResult",
            KvResponse::Done => "Done",
        }
    }

    fn mismatch(&self, expected: &'static str) -> MalformedRound {
        MalformedRound::Mismatch {
            expected,
            got: self.variant_name(),
        }
    }

    /// Get: the value, if the key was present.
    pub fn value(&self) -> Result<Option<&[u8]>, MalformedRound> {
        match self {
            KvResponse::Value(v) => Ok(v.as_deref()),
            other => Err(other.mismatch("Value")),
        }
    }

    /// Consuming form of [`KvResponse::value`].
    pub fn into_value(self) -> Result<Option<Vec<u8>>, MalformedRound> {
        match self {
            KvResponse::Value(v) => Ok(v),
            other => Err(other.mismatch("Value")),
        }
    }

    /// GetRange: the entries.
    pub fn entries(&self) -> Result<&Entries, MalformedRound> {
        match self {
            KvResponse::Entries(e) => Ok(e),
            other => Err(other.mismatch("Entries")),
        }
    }

    /// Consuming form of [`KvResponse::entries`]: the block itself.
    pub fn into_block(self) -> Result<Entries, MalformedRound> {
        match self {
            KvResponse::Entries(e) => Ok(e),
            other => Err(other.mismatch("Entries")),
        }
    }

    /// GetRange: the entries converted to owned pairs — an allocation per
    /// key and per value, for tests and probes; product paths read
    /// [`KvResponse::entries`] in place.
    pub fn into_entries(self) -> Result<Vec<KvEntry>, MalformedRound> {
        self.entries().map(Entries::to_vec)
    }

    /// CountRange: the count.
    pub fn count(&self) -> Result<u64, MalformedRound> {
        match self {
            KvResponse::Count(c) => Ok(*c),
            other => Err(other.mismatch("Count")),
        }
    }

    /// TestAndSet: (applied?, the value stored when it did not apply).
    pub fn tas(&self) -> Result<(bool, Option<&[u8]>), MalformedRound> {
        match self {
            KvResponse::TasResult { success, current } => Ok((*success, current.as_deref())),
            other => Err(other.mismatch("TasResult")),
        }
    }

    /// Panicking convenience for tests and benches; production call sites
    /// use the `Result`-returning accessors above.
    pub fn expect_value(&self) -> Option<&[u8]> {
        self.value().unwrap_or_else(|e| panic!("{e}"))
    }

    /// See [`KvResponse::expect_value`].
    pub fn expect_entries(&self) -> &Entries {
        self.entries().unwrap_or_else(|e| panic!("{e}"))
    }

    /// See [`KvResponse::expect_value`].
    pub fn expect_count(&self) -> u64 {
        self.count().unwrap_or_else(|e| panic!("{e}"))
    }
}

/// A set of requests issued in parallel; the session clock advances to the
/// latest completion in the round.
pub type RequestRound = Vec<KvRequest>;

/// One probe of a [`ReadRound`], borrowed from the round's buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Probe<'a> {
    /// The entry stored under a key.
    Get(&'a [u8]),
    /// Up to `limit` entries of `[start, end)` in scan order, down from
    /// `end` when `reverse`; `end: None` is open above.
    Range {
        start: &'a [u8],
        end: Option<&'a [u8]>,
        limit: Option<u64>,
        reverse: bool,
    },
}

impl Probe<'_> {
    /// The request in `ns` this probe stands for.
    pub fn request(self, ns: NsId) -> KvRequest {
        match self {
            Probe::Get(key) => KvRequest::Get {
                ns,
                key: key.to_vec(),
            },
            Probe::Range {
                start,
                end,
                limit,
                reverse,
            } => KvRequest::GetRange {
                ns,
                start: start.to_vec(),
                end: end.map(<[u8]>::to_vec),
                limit,
                reverse,
            },
        }
    }
}

/// What every probe of a [`ReadRound`] reads.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
enum Shape {
    #[default]
    Gets,
    Ranges {
        limit: Option<u64>,
        reverse: bool,
    },
}

/// One operator's read round, packed: every probe key, or every range's
/// `[start, end)`, back to back in one byte buffer, and where each ends in
/// one vector. All ranges of a round share one limit and one direction. It
/// stands for the round of one [`KvRequest::Get`] per key, or one
/// [`KvRequest::GetRange`] per interval ([`Probe::request`]), and
/// [`KvStore::read_round`](crate::KvStore::read_round) answers it as one
/// [`ReadAnswer`]. A round is reused by resetting it: its buffers stay.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ReadRound {
    ns: NsId,
    shape: Shape,
    /// A get's key; a range's start, then its end.
    bytes: Vec<u8>,
    /// Per probe, where its key or start ends in `bytes`, and where a
    /// range's end ends: `None` for a get and for a range open above.
    ends: Vec<(usize, Option<usize>)>,
}

impl ReadRound {
    /// A round of gets in `ns`, with room for `probes` of them.
    pub fn gets(ns: NsId, probes: usize) -> Self {
        let mut round = ReadRound::default();
        round.reset_gets(ns, probes);
        round
    }

    /// A round of ranges in `ns`, each answering up to `limit` entries in
    /// the direction `reverse` gives, with room for `probes` of them.
    pub fn ranges(ns: NsId, probes: usize, limit: Option<u64>, reverse: bool) -> Self {
        let mut round = ReadRound::default();
        round.reset_ranges(ns, probes, limit, reverse);
        round
    }

    /// Empty the round and make it [`ReadRound::gets`]' round, keeping
    /// its buffers.
    pub fn reset_gets(&mut self, ns: NsId, probes: usize) {
        self.reset(ns, Shape::Gets, probes);
    }

    /// Empty the round and make it [`ReadRound::ranges`]' round, keeping
    /// its buffers.
    pub fn reset_ranges(&mut self, ns: NsId, probes: usize, limit: Option<u64>, reverse: bool) {
        self.reset(ns, Shape::Ranges { limit, reverse }, probes);
    }

    fn reset(&mut self, ns: NsId, shape: Shape, probes: usize) {
        (self.ns, self.shape) = (ns, shape);
        self.bytes.clear();
        self.ends.clear();
        self.ends.reserve_exact(probes);
    }

    pub fn ns(&self) -> NsId {
        self.ns
    }

    /// Probes in the round.
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// Bytes the round's buffers have room for.
    pub fn capacity_bytes(&self) -> usize {
        self.bytes.capacity() + self.ends.capacity() * std::mem::size_of::<(usize, Option<usize>)>()
    }

    /// Append a get of `key`. Panics on a round of ranges.
    pub fn push_get(&mut self, key: &[u8]) {
        assert!(self.shape == Shape::Gets, "a get in a round of ranges");
        self.make_room(key.len());
        self.bytes.extend_from_slice(key);
        self.ends.push((self.bytes.len(), None));
    }

    /// Append the range `[start, end)`. Panics on a round of gets.
    pub fn push_range(&mut self, start: &[u8], end: Option<&[u8]>) {
        assert!(self.shape != Shape::Gets, "a range in a round of gets");
        self.make_room(start.len() + end.map_or(0, <[u8]>::len));
        self.bytes.extend_from_slice(start);
        let start_end = self.bytes.len();
        let end_end = end.map(|end| {
            self.bytes.extend_from_slice(end);
            self.bytes.len()
        });
        self.ends.push((start_end, end_end));
    }

    /// On the first probe, room for as many probes of its size as the
    /// round has room for: one operator's probes are alike, so the buffer
    /// is allocated once, or grows once, and a reused round's not at all.
    fn make_room(&mut self, probe: usize) {
        if self.ends.is_empty() {
            let room = probe.saturating_mul(self.ends.capacity().max(1));
            self.bytes.reserve_exact(room);
        }
    }

    /// Probe `i`. Panics when `i >= len()`, like a slice.
    pub fn probe(&self, i: usize) -> Probe<'_> {
        let from = match i {
            0 => 0,
            _ => {
                let (key_end, end_end) = self.ends[i - 1];
                end_end.unwrap_or(key_end)
            }
        };
        let (key_end, end_end) = self.ends[i];
        let key = &self.bytes[from..key_end];
        match self.shape {
            Shape::Gets => Probe::Get(key),
            Shape::Ranges { limit, reverse } => Probe::Range {
                start: key,
                end: end_end.map(|end| &self.bytes[key_end..end]),
                limit,
                reverse,
            },
        }
    }

    /// Every probe, in order.
    pub fn probes(&self) -> impl ExactSizeIterator<Item = Probe<'_>> {
        (0..self.len()).map(|i| self.probe(i))
    }
}

/// The answer to a [`ReadRound`], packed: what every probe found, back to
/// back in one [`Entries`] block in probe order, and where each probe's
/// answer ends. A get answers its key and the value stored under it, or
/// nothing. An answer is reused by handing it to the next round: the store
/// empties it first ([`ReadAnswer::reset`]), and its buffers stay.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ReadAnswer {
    entries: Entries,
    /// Per probe, how many entries it and the probes before it answered.
    ends: Vec<usize>,
}

impl ReadAnswer {
    /// Empty the answer, keeping its buffers, and make room for exactly
    /// `probes` probes finding `entries` entries of `bytes` key and value
    /// bytes in all. Every fill of an answer begins here, so what a reused
    /// answer held before is never read as part of the next.
    pub fn reset(&mut self, probes: usize, entries: usize, bytes: usize) {
        self.entries.reset(entries, bytes);
        self.ends.clear();
        self.ends.reserve_exact(probes);
    }

    /// Bytes the answer's buffers have room for.
    pub fn capacity_bytes(&self) -> usize {
        self.entries.capacity_bytes() + self.ends.capacity() * std::mem::size_of::<usize>()
    }

    /// Probes answered.
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// Every entry of the round, in probe order.
    pub fn entries(&self) -> &Entries {
        &self.entries
    }

    /// Where probe `i`'s entries lie in [`ReadAnswer::entries`]. Panics
    /// when `i >= len()`.
    pub fn span(&self, i: usize) -> std::ops::Range<usize> {
        let from = match i {
            0 => 0,
            _ => self.ends[i - 1],
        };
        from..self.ends[i]
    }

    /// Probe `i`'s entries. Panics when `i >= len()`.
    pub fn probe(&self, i: usize) -> EntriesIter<'_> {
        EntriesIter {
            entries: &self.entries,
            range: self.span(i),
        }
    }

    /// Append an entry to the probe being answered.
    pub(crate) fn push(&mut self, key: &[u8], value: &[u8]) {
        self.entries.push(key, value);
    }

    /// Close the probe being answered.
    pub(crate) fn end_probe(&mut self) {
        self.ends.push(self.entries.len());
    }

    /// Answer the next probe, `probe`, with `response`: a get's value
    /// behind its key, a range's entries. A response of another variant is
    /// a malformed round.
    pub fn push_response(
        &mut self,
        probe: Probe<'_>,
        response: &KvResponse,
    ) -> Result<(), MalformedRound> {
        match (probe, response) {
            (Probe::Get(key), KvResponse::Value(value)) => {
                if let Some(value) = value {
                    self.push(key, value);
                }
            }
            (Probe::Range { .. }, KvResponse::Entries(found)) => {
                for (key, value) in found {
                    self.push(key, value);
                }
            }
            (Probe::Get(_), other) => return Err(other.mismatch("Value")),
            (Probe::Range { .. }, other) => return Err(other.mismatch("Entries")),
        }
        self.end_probe();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accessors_return_mismatch_instead_of_panicking() {
        let value = KvResponse::Value(Some(b"v".to_vec()));
        assert_eq!(value.value().unwrap(), Some(b"v".as_slice()));
        assert_eq!(
            value.entries().unwrap_err(),
            MalformedRound::Mismatch {
                expected: "Entries",
                got: "Value"
            }
        );
        assert_eq!(
            KvResponse::Done.count().unwrap_err().to_string(),
            "malformed round: expected Count response, got Done"
        );
        let tas = KvResponse::TasResult {
            success: true,
            current: None,
        };
        assert_eq!(tas.tas().unwrap(), (true, None));
        assert!(tas.value().is_err());
        assert_eq!(
            KvResponse::Entries(vec![(vec![1], vec![2])].into())
                .into_entries()
                .unwrap(),
            vec![(vec![1], vec![2])]
        );
        assert_eq!(
            KvResponse::Value(None).into_value().unwrap(),
            None::<Vec<u8>>
        );
    }

    #[test]
    #[should_panic(expected = "expected Value response")]
    fn expect_helpers_still_panic_for_tests() {
        KvResponse::Done.expect_value();
    }

    #[test]
    fn a_packed_round_gives_back_its_probes_and_stands_for_their_requests() {
        let ns = NsId(3);
        let mut gets = ReadRound::gets(ns, 3);
        for key in [&b"ab"[..], b"", b"cde"] {
            gets.push_get(key);
        }
        let keys: Vec<Probe> = gets.probes().collect();
        assert_eq!(
            keys,
            [Probe::Get(b"ab"), Probe::Get(b""), Probe::Get(b"cde")]
        );
        assert_eq!(
            gets.probe(2).request(ns),
            KvRequest::Get {
                ns,
                key: b"cde".to_vec()
            }
        );

        let mut ranges = ReadRound::ranges(ns, 2, Some(4), true);
        ranges.push_range(b"a", None);
        ranges.push_range(b"b", Some(b""));
        ranges.push_range(b"", Some(b"zz"));
        let range = |start, end| Probe::Range {
            start,
            end,
            limit: Some(4),
            reverse: true,
        };
        let probes: Vec<Probe> = ranges.probes().collect();
        assert_eq!(
            probes,
            [
                range(b"a", None),
                range(b"b", Some(b"")),
                range(b"", Some(b"zz"))
            ]
        );
        assert_eq!(ranges.len(), 3);
    }

    #[test]
    fn an_answer_takes_each_probe_s_response_or_refuses_its_variant() {
        let mut round = ReadRound::gets(NsId(0), 3);
        for key in [b"k1", b"k2", b"k3"] {
            round.push_get(key);
        }
        let mut answer = ReadAnswer::default();
        answer
            .push_response(round.probe(0), &KvResponse::Value(Some(b"v1".to_vec())))
            .unwrap();
        answer
            .push_response(round.probe(1), &KvResponse::Value(None))
            .unwrap();
        assert_eq!(
            answer.push_response(round.probe(2), &KvResponse::Done),
            Err(MalformedRound::Mismatch {
                expected: "Value",
                got: "Done"
            })
        );
        assert_eq!(answer.len(), 2);
        assert_eq!(
            answer.probe(0).collect::<Vec<_>>(),
            [(&b"k1"[..], &b"v1"[..])]
        );
        assert_eq!((answer.span(1), answer.probe(1).count()), (1..1, 0));

        let mut ranges = ReadRound::ranges(NsId(0), 1, None, false);
        ranges.push_range(b"a", Some(b"z"));
        let block = Entries::from(vec![
            (b"a".to_vec(), b"1".to_vec()),
            (b"b".to_vec(), vec![]),
        ]);
        answer
            .push_response(ranges.probe(0), &KvResponse::Entries(block.clone()))
            .unwrap();
        assert_eq!(answer.span(2), 1..3);
        assert!(answer.probe(2).eq(block.iter()));
        assert!(answer
            .push_response(ranges.probe(0), &KvResponse::Value(None))
            .is_err());
    }
}
