//! Serializable client-side pagination cursors (§4.1).
//!
//! A paginated query returns a cursor that can be serialized, shipped to
//! the user with the page, and later sent back to *any* application server
//! to resume — the application tier stays stateless. The state is tiny:
//! the last index key returned by the uncompleted scan (plus, for merged
//! sorted joins, the sort suffix that orders the merge).

use std::fmt;

/// Resume state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CursorState {
    /// Root IndexScan: resume strictly after this index key.
    ScanAfter { last_key: Vec<u8> },
    /// Root SortedIndexJoin: resume strictly after this emission position.
    /// `suffix` is the index-key bytes after the probe prefix (the sort
    /// columns + pk), comparable across join keys; `full_key` breaks ties.
    SortedJoinAfter { suffix: Vec<u8>, full_key: Vec<u8> },
}

/// A pagination cursor.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Cursor {
    pub state: CursorState,
}

/// Cursor (de)serialization errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CursorError(pub String);

impl fmt::Display for CursorError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid cursor: {}", self.0)
    }
}

impl std::error::Error for CursorError {}

const VERSION: u8 = 1;
const TAG_SCAN: u8 = 1;
const TAG_SORTED: u8 = 2;

fn write_bytes(out: &mut Vec<u8>, b: &[u8]) {
    let mut n = b.len() as u64;
    loop {
        let byte = (n & 0x7F) as u8;
        n >>= 7;
        if n == 0 {
            out.push(byte);
            break;
        }
        out.push(byte | 0x80);
    }
    out.extend_from_slice(b);
}

fn read_bytes(buf: &[u8], pos: &mut usize) -> Result<Vec<u8>, CursorError> {
    let mut n = 0u64;
    let mut shift = 0;
    loop {
        let b = *buf
            .get(*pos)
            .ok_or_else(|| CursorError("truncated length".into()))?;
        *pos += 1;
        n |= ((b & 0x7F) as u64) << shift;
        if b & 0x80 == 0 {
            break;
        }
        shift += 7;
        if shift >= 64 {
            return Err(CursorError("length overflow".into()));
        }
    }
    let n = n as usize;
    let out = buf
        .get(*pos..*pos + n)
        .ok_or_else(|| CursorError("truncated payload".into()))?
        .to_vec();
    *pos += n;
    Ok(out)
}

impl Cursor {
    /// Serialize for shipping to the client.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.write_to(&mut out);
        out
    }

    /// Append the serialization [`Cursor::to_bytes`] returns to `out`.
    pub fn write_to(&self, out: &mut Vec<u8>) {
        out.push(VERSION);
        match &self.state {
            CursorState::ScanAfter { last_key } => {
                out.push(TAG_SCAN);
                write_bytes(out, last_key);
            }
            CursorState::SortedJoinAfter { suffix, full_key } => {
                out.push(TAG_SORTED);
                write_bytes(out, suffix);
                write_bytes(out, full_key);
            }
        }
    }

    /// Deserialize a client-provided cursor.
    pub fn from_bytes(buf: &[u8]) -> Result<Cursor, CursorError> {
        if buf.first() != Some(&VERSION) {
            return Err(CursorError("unsupported version".into()));
        }
        let mut pos = 2;
        match buf.get(1) {
            Some(&TAG_SCAN) => Ok(Cursor {
                state: CursorState::ScanAfter {
                    last_key: read_bytes(buf, &mut pos)?,
                },
            }),
            Some(&TAG_SORTED) => {
                let suffix = read_bytes(buf, &mut pos)?;
                let full_key = read_bytes(buf, &mut pos)?;
                Ok(Cursor {
                    state: CursorState::SortedJoinAfter { suffix, full_key },
                })
            }
            _ => Err(CursorError("unknown tag".into())),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scan_cursor_roundtrip() {
        let c = Cursor {
            state: CursorState::ScanAfter {
                last_key: vec![1, 2, 3, 0, 255],
            },
        };
        assert_eq!(Cursor::from_bytes(&c.to_bytes()).unwrap(), c);
    }

    #[test]
    fn sorted_cursor_roundtrip() {
        let c = Cursor {
            state: CursorState::SortedJoinAfter {
                suffix: vec![9; 300],
                full_key: vec![7; 10],
            },
        };
        assert_eq!(Cursor::from_bytes(&c.to_bytes()).unwrap(), c);
    }

    #[test]
    fn garbage_rejected() {
        assert!(Cursor::from_bytes(&[]).is_err());
        assert!(Cursor::from_bytes(&[1, 9]).is_err());
        assert!(Cursor::from_bytes(&[2, 1, 0]).is_err());
        assert!(Cursor::from_bytes(&[1, 1, 5, 1]).is_err());
    }
}
