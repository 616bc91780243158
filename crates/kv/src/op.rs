//! The key/value-store operation vocabulary (§3).
//!
//! PIQL requires exactly this from its store: get/put/delete, *range*
//! requests (for index scans with data locality), count-range (cardinality
//! enforcement, §7.2), and test-and-set (uniqueness constraints and
//! conditional updates). Requests are grouped into [`RequestRound`]s — all
//! requests of a round are issued in parallel, which is how the execution
//! engine's Parallel strategy gets its speedup (§8.5).

/// Namespace handle (one per table / index).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
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
    /// Atomically set `key` to `value` iff its current value equals
    /// `expect`. `value = None` deletes; `expect = None` requires absence.
    TestAndSet {
        ns: NsId,
        key: Vec<u8>,
        expect: Option<Vec<u8>>,
        value: Option<Vec<u8>>,
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

/// One `(key, value)` entry as an owned pair — what bulk loads, exports and
/// tests trade in. Range answers travel as [`Entries`].
pub type KvEntry = (Vec<u8>, Vec<u8>);

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

    pub fn len(&self) -> usize {
        self.ends.len()
    }

    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// Key and value bytes shipped — the `bytes` figure of session and
    /// cluster stats.
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
    /// TestAndSet: whether the swap applied, and the value now stored.
    TasResult {
        success: bool,
        current: Option<Vec<u8>>,
    },
    /// Put/Delete acknowledgement.
    Done,
}

/// A response of the wrong variant for its positional request — a malformed
/// round (engine bug or misbehaving backend). Engine call sites surface
/// this as a query error instead of panicking mid-connection.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResponseMismatch {
    /// Variant the caller needed.
    pub expected: &'static str,
    /// Variant actually received.
    pub got: &'static str,
}

impl std::fmt::Display for ResponseMismatch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "malformed round: expected {} response, got {}",
            self.expected, self.got
        )
    }
}

impl std::error::Error for ResponseMismatch {}

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

    fn mismatch(&self, expected: &'static str) -> ResponseMismatch {
        ResponseMismatch {
            expected,
            got: self.variant_name(),
        }
    }

    /// Get: the value, if the key was present.
    pub fn value(&self) -> Result<Option<&[u8]>, ResponseMismatch> {
        match self {
            KvResponse::Value(v) => Ok(v.as_deref()),
            other => Err(other.mismatch("Value")),
        }
    }

    /// Consuming form of [`KvResponse::value`].
    pub fn into_value(self) -> Result<Option<Vec<u8>>, ResponseMismatch> {
        match self {
            KvResponse::Value(v) => Ok(v),
            other => Err(other.mismatch("Value")),
        }
    }

    /// GetRange: the entries.
    pub fn entries(&self) -> Result<&Entries, ResponseMismatch> {
        match self {
            KvResponse::Entries(e) => Ok(e),
            other => Err(other.mismatch("Entries")),
        }
    }

    /// Consuming form of [`KvResponse::entries`]: the block itself.
    pub fn into_block(self) -> Result<Entries, ResponseMismatch> {
        match self {
            KvResponse::Entries(e) => Ok(e),
            other => Err(other.mismatch("Entries")),
        }
    }

    /// GetRange: the entries converted to owned pairs — an allocation per
    /// key and per value, for tests and probes; product paths read
    /// [`KvResponse::entries`] in place.
    pub fn into_entries(self) -> Result<Vec<KvEntry>, ResponseMismatch> {
        self.entries().map(Entries::to_vec)
    }

    /// CountRange: the count.
    pub fn count(&self) -> Result<u64, ResponseMismatch> {
        match self {
            KvResponse::Count(c) => Ok(*c),
            other => Err(other.mismatch("Count")),
        }
    }

    /// TestAndSet: (applied?, value now stored).
    pub fn tas(&self) -> Result<(bool, Option<&[u8]>), ResponseMismatch> {
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accessors_return_mismatch_instead_of_panicking() {
        let value = KvResponse::Value(Some(b"v".to_vec()));
        assert_eq!(value.value().unwrap(), Some(b"v".as_slice()));
        assert_eq!(
            value.entries().unwrap_err(),
            ResponseMismatch {
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
}
