//! The codec abstraction the serving stack is generic over.
//!
//! PROTOCOL.md defines two encodings of the same request/response model:
//! newline-delimited JSON (v2, the compatibility default) and
//! length-prefixed binary frames (v3, negotiated by a magic preamble —
//! see [`crate::binary`]). [`Wire`] is the seam between them: the server's
//! reader/writer lanes, the [`Client`](crate::Client), and the
//! [`Pipeline`](crate::Pipeline) all speak *frames* through this trait and
//! never mention bytes-on-the-wire directly, so both encodings share one
//! request router and one response builder.
//!
//! A *frame* is one protocol message with its transport framing stripped:
//! for JSON the line's bytes without the trailing newline, for binary the
//! bytes after the length prefix (opcode + id + payload). Encoders append
//! complete framed messages (newline / length prefix included) so a writer
//! can batch many responses into one buffer and flush once.

use crate::binary::MAX_FRAME;
use crate::json::Json;
use crate::protocol::{
    envelope_to_line, extract_id, read_envelope, write_doc, write_reply, Envelope, ProtoError,
    Reply, RequestId,
};
use std::io::{self, BufRead, Read};

/// One wire encoding of the protocol. Implementations are stateless (any
/// per-connection scratch lives in the caller), so a single instance can
/// serve every connection of a server.
pub trait Wire: Send + Sync {
    /// Protocol version this codec speaks (2 = JSON lines, 3 = binary).
    fn version(&self) -> u8;

    /// Append one framed request (id included) to `out`.
    fn encode_envelope(&self, env: &Envelope, out: &mut Vec<u8>);

    /// Append one framed response carrying `id` to `out`. The `response`
    /// body must not already carry an `id` field; correlation is the
    /// codec's job (JSON attaches it in-body, binary carries it in the
    /// frame header).
    fn encode_response(&self, id: Option<&RequestId>, response: &Json, out: &mut Vec<u8>);

    /// Append one framed response carrying `id` to `out`, rows written
    /// straight from the executor's block — the bytes
    /// [`Wire::encode_response`] makes of `reply.into_json()`, without the
    /// tree. This is how every answer leaves a server.
    fn encode_reply(&self, id: Option<&RequestId>, reply: &Reply, out: &mut Vec<u8>);

    /// Read the next frame into `buf` (cleared first; its capacity is
    /// reused across calls — the read path of a warm connection performs
    /// no allocation). Returns `Ok(false)` on clean end-of-stream at a
    /// frame boundary; EOF mid-frame and oversized frames are
    /// [`io::Error`]s (the connection is unrecoverable — unlike a decode
    /// error within an intact frame, which leaves the stream in sync).
    fn read_frame(&self, reader: &mut dyn BufRead, buf: &mut Vec<u8>) -> io::Result<bool>;

    /// Decode a frame produced by [`Wire::encode_envelope`] over `env` —
    /// the codec's one request decoder. A connection that keeps its last
    /// request decodes the next one into its buffers: a statement text that
    /// has not changed is not rewritten; the parameter vector, each
    /// `Varchar` and each collection keep their capacity; a `batch` keeps
    /// its vector and decodes each sub-request over the one at its
    /// position; and a slot keeps its text and parameter vector when it
    /// switches between `execute` and `dml`. What a request of another
    /// shape leaves unused — the slots past a shorter batch's end, the
    /// buffer of a `Varchar` an `Int` now stands in, a collection's vector —
    /// goes to the decoding thread's stash (at most
    /// [`DECODE_STASH_BYTES`](crate::protocol::DECODE_STASH_BYTES)), and
    /// what a larger one needs comes out of it. So a warm `execute`, `dml`
    /// or batch of them allocates nothing here, whichever shape `env` held
    /// before. On success `env` equals what [`Wire::decode_envelope`]
    /// returns; on error its contents are unspecified (the next successful
    /// decode overwrites them all).
    fn decode_into(&self, frame: &[u8], env: &mut Envelope) -> Result<(), ProtoError>;

    /// [`Wire::decode_into`] on a fresh envelope.
    fn decode_envelope(&self, frame: &[u8]) -> Result<Envelope, ProtoError> {
        let mut env = Envelope::empty();
        self.decode_into(frame, &mut env)?;
        Ok(env)
    }

    /// Decode a frame produced by [`Wire::encode_response`].
    fn decode_response(&self, frame: &[u8]) -> Result<(Option<RequestId>, Json), ProtoError>;

    /// Best-effort id recovery from a frame that failed
    /// [`Wire::decode_envelope`], so the error response can still echo it
    /// and a pipelining client can correlate the failure (PROTOCOL.md §7).
    fn extract_id(&self, frame: &[u8]) -> Option<RequestId>;
}

/// The newline-delimited JSON encoding (protocol v2) as a [`Wire`].
/// Delegates to [`crate::protocol`], whose byte output is pinned by the
/// differential tests — framing through this type changes nothing on the
/// wire.
#[derive(Debug, Default, Clone, Copy)]
pub struct JsonWire;

impl Wire for JsonWire {
    fn version(&self) -> u8 {
        2
    }

    fn encode_envelope(&self, env: &Envelope, out: &mut Vec<u8>) {
        out.extend_from_slice(envelope_to_line(env).as_bytes());
        out.push(b'\n');
    }

    fn encode_response(&self, id: Option<&RequestId>, response: &Json, out: &mut Vec<u8>) {
        write_doc(id, response, out);
        out.push(b'\n');
    }

    fn encode_reply(&self, id: Option<&RequestId>, reply: &Reply, out: &mut Vec<u8>) {
        write_reply(id, reply, out);
        out.push(b'\n');
    }

    fn read_frame(&self, reader: &mut dyn BufRead, buf: &mut Vec<u8>) -> io::Result<bool> {
        loop {
            buf.clear();
            // one byte past the cap tells a line that fits from one that
            // has not ended yet
            let mut capped = (&mut *reader).take(MAX_FRAME as u64 + 1);
            let n = capped.read_until(b'\n', buf)?;
            if n == 0 {
                return Ok(false);
            }
            if n > MAX_FRAME && buf.last() != Some(&b'\n') {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("line exceeds the {MAX_FRAME}-byte cap"),
                ));
            }
            while matches!(buf.last(), Some(b'\n' | b'\r')) {
                buf.pop();
            }
            // blank lines are keep-alive noise, not frames
            if buf.iter().any(|b| !b.is_ascii_whitespace()) {
                return Ok(true);
            }
        }
    }

    fn decode_into(&self, frame: &[u8], env: &mut Envelope) -> Result<(), ProtoError> {
        let line = std::str::from_utf8(frame)
            .map_err(|_| ProtoError::Malformed("request is not valid UTF-8".into()))?;
        read_envelope(line, env)
    }

    fn decode_response(&self, frame: &[u8]) -> Result<(Option<RequestId>, Json), ProtoError> {
        let line = std::str::from_utf8(frame)
            .map_err(|_| ProtoError::Malformed("response is not valid UTF-8".into()))?;
        let j = crate::json::parse(line.trim())?;
        let id = match j.get("id") {
            None | Some(Json::Null) => None,
            Some(other) => Some(RequestId::from_json(other)?),
        };
        Ok((id, j))
    }

    fn extract_id(&self, frame: &[u8]) -> Option<RequestId> {
        extract_id(std::str::from_utf8(frame).ok()?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::Request;
    use std::io::{self, BufReader};

    #[test]
    fn json_wire_frames_match_line_protocol() {
        let wire = JsonWire;
        let env = Envelope {
            id: Some(RequestId::Int(7)),
            request: Request::Stats,
        };
        let mut out = Vec::new();
        wire.encode_envelope(&env, &mut out);
        assert_eq!(out, format!("{}\n", envelope_to_line(&env)).into_bytes());

        let mut reader = BufReader::new(&out[..]);
        let mut frame = Vec::new();
        assert!(wire.read_frame(&mut reader, &mut frame).unwrap());
        assert_eq!(wire.decode_envelope(&frame).unwrap(), env);
        assert!(!wire.read_frame(&mut reader, &mut frame).unwrap());
    }

    #[test]
    fn json_wire_skips_blank_lines_and_attaches_ids() {
        let wire = JsonWire;
        let bytes = b"\n  \r\n{\"cmd\":\"stats\",\"id\":3}\n";
        let mut reader = BufReader::new(&bytes[..]);
        let mut frame = Vec::new();
        assert!(wire.read_frame(&mut reader, &mut frame).unwrap());
        let env = wire.decode_envelope(&frame).unwrap();
        assert_eq!(env.id, Some(RequestId::Int(3)));

        let mut out = Vec::new();
        wire.encode_response(
            Some(&RequestId::Int(3)),
            &crate::protocol::ok_response([]),
            &mut out,
        );
        let (id, j) = wire.decode_response(&out[..out.len() - 1]).unwrap();
        assert_eq!(id, Some(RequestId::Int(3)));
        assert_eq!(j.get("ok").and_then(Json::as_bool), Some(true));
    }

    #[test]
    fn json_read_frame_refuses_a_line_that_never_ends() {
        // the contract says oversized frames are errors; an endless line
        // used to grow the buffer until the process ran out of memory
        let mut reader = BufReader::new(io::repeat(b'x'));
        let mut frame = Vec::new();
        let error = JsonWire.read_frame(&mut reader, &mut frame).unwrap_err();
        assert_eq!(error.kind(), io::ErrorKind::InvalidData);
        assert!(error.to_string().contains("cap"), "{error}");
    }

    #[test]
    fn json_extract_id_recovers_from_garbage_requests() {
        let wire = JsonWire;
        assert_eq!(
            wire.extract_id(b"{\"cmd\":\"nope\",\"id\":\"x\"}"),
            Some(RequestId::Str("x".into()))
        );
        assert_eq!(wire.extract_id(b"not json"), None);
        assert_eq!(wire.extract_id(&[0xFF, 0xFE]), None);
    }
}
