//! A small blocking client for the wire protocol — what the examples,
//! benches, and differential tests drive the server with.
//!
//! The client speaks either codec through the same [`Wire`] seam the
//! server uses: [`Client::connect`] opens a JSON (v2) connection,
//! [`Client::connect_binary`] negotiates binary v3 (magic preamble, hello
//! frame — and fails cleanly against a v2-only server, see
//! [`crate::binary`]). Every typed method behaves identically on both.
//!
//! Two ways to amortize round trips (PROTOCOL.md §5–6): a [`Pipeline`]
//! queues many independent requests and flushes them as one write (the
//! server answers in completion order; the pipeline reassembles
//! positionally by id), and [`Client::execute_batch`] ships many
//! sub-requests in a single frame answered by a single response (the
//! server runs them sequentially on one session, so a write is visible
//! to the read after it).

use crate::binary::{self, BinaryWire};
use crate::json::{Json, JsonArr};
use crate::protocol::{
    attach_id, hex_decode, value_from_json, Envelope, ProtoError, Request, RequestId,
};
use crate::wire::{JsonWire, Wire};
use piql_core::plan::params::ParamValue;
use piql_core::tuple::Tuple;
use piql_engine::Cursor;
use std::fmt;
use std::io::{self, BufReader, Write};
use std::net::{TcpStream, ToSocketAddrs};

/// Client-side failures.
#[derive(Debug)]
pub enum ClientError {
    Io(io::Error),
    Proto(ProtoError),
    /// The server answered `{"ok":false,...}`.
    Server(String),
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "io: {e}"),
            ClientError::Proto(e) => write!(f, "protocol: {e}"),
            ClientError::Server(msg) => write!(f, "server error: {msg}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Io(e)
    }
}

impl From<ProtoError> for ClientError {
    fn from(e: ProtoError) -> Self {
        ClientError::Proto(e)
    }
}

/// One page of results.
#[derive(Debug, Clone, PartialEq)]
pub struct Page {
    pub rows: Vec<Tuple>,
    pub cursor: Option<Cursor>,
}

/// A connected protocol client (either codec; see [`Client::connect`] and
/// [`Client::connect_binary`]).
pub struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    /// The codec this connection negotiated.
    wire: Box<dyn Wire>,
    /// Reused read-side frame scratch.
    frame: Vec<u8>,
    /// Reused write-side encode scratch.
    scratch: Vec<u8>,
    /// Monotonic source of pipeline request ids (unique per connection,
    /// which is all the protocol requires).
    next_id: i64,
}

impl Client {
    /// Connect speaking the JSON line protocol (v2, the compatibility
    /// default — works against every server).
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true).ok();
        let writer = stream.try_clone()?;
        Ok(Client {
            writer,
            reader: BufReader::new(stream),
            wire: Box::new(JsonWire),
            frame: Vec::new(),
            scratch: Vec::new(),
            next_id: 1,
        })
    }

    /// Connect speaking binary v3: sends the magic preamble and requires
    /// the server's hello. Against a v2-only server this fails with a
    /// clean `InvalidData` ("server does not speak v3") instead of
    /// hanging — the JSON error line the old server answers with reads as
    /// an over-cap frame length (see [`crate::binary`]).
    pub fn connect_binary(addr: impl ToSocketAddrs) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true).ok();
        let mut writer = stream.try_clone()?;
        let mut reader = BufReader::new(stream);
        writer.write_all(&binary::MAGIC)?;
        writer.flush()?;
        let wire = BinaryWire;
        let mut frame = Vec::new();
        if !wire.read_frame(&mut reader, &mut frame)? {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed before the v3 hello",
            ));
        }
        let version = binary::parse_hello(&frame)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        if version != binary::VERSION {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "server speaks binary v{version}, this client speaks v{}",
                    binary::VERSION
                ),
            ));
        }
        Ok(Client {
            writer,
            reader,
            wire: Box::new(wire),
            frame,
            scratch: Vec::new(),
            next_id: 1,
        })
    }

    /// Protocol version this connection negotiated (2 or 3).
    pub fn wire_version(&self) -> u8 {
        self.wire.version()
    }

    /// Send one request, read one response object (the raw envelope,
    /// `ok` included).
    pub fn request_raw(&mut self, request: &Request) -> Result<Json, ClientError> {
        self.scratch.clear();
        self.wire.encode_envelope(
            &Envelope {
                id: None,
                request: request.clone(),
            },
            &mut self.scratch,
        );
        self.writer.write_all(&self.scratch)?;
        self.writer.flush()?;
        self.read_response()
    }

    /// Read and decode one response frame. The correlation id — carried
    /// in-body by v2, in the frame header by v3 — is attached into the
    /// returned object either way, so callers see one shape.
    fn read_response(&mut self) -> Result<Json, ClientError> {
        if !self.wire.read_frame(&mut self.reader, &mut self.frame)? {
            return Err(ClientError::Io(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            )));
        }
        let (id, mut json) = self.wire.decode_response(&self.frame)?;
        if let Some(id) = id {
            attach_id(&mut json, &id);
        }
        Ok(json)
    }

    /// Send one request; error if the server answered `ok = false`.
    pub fn request(&mut self, request: &Request) -> Result<Json, ClientError> {
        let response = self.request_raw(request)?;
        match response.get("ok").and_then(Json::as_bool) {
            Some(true) => Ok(response),
            _ => Err(ClientError::Server(
                response
                    .get("error")
                    .and_then(Json::as_str)
                    .unwrap_or("unknown error")
                    .to_string(),
            )),
        }
    }

    /// Register a statement; returns the admission envelope (even when
    /// the verdict is a rejection — that is a successful protocol exchange).
    pub fn prepare(&mut self, name: &str, sql: &str) -> Result<Json, ClientError> {
        self.request(&Request::Prepare {
            name: name.to_string(),
            sql: sql.to_string(),
        })
    }

    /// Execute a registered statement.
    pub fn execute(
        &mut self,
        name: &str,
        params: &[ParamValue],
        cursor: Option<Cursor>,
    ) -> Result<Page, ClientError> {
        let response = self.request(&Request::Execute {
            name: name.to_string(),
            params: params.to_vec(),
            cursor,
        })?;
        decode_page(&response)
    }

    /// Resume a paginated statement from a cursor.
    pub fn cursor_next(
        &mut self,
        name: &str,
        params: &[ParamValue],
        cursor: Cursor,
    ) -> Result<Page, ClientError> {
        self.execute(name, params, Some(cursor))
    }

    pub fn dml(&mut self, sql: &str, params: &[ParamValue]) -> Result<(), ClientError> {
        self.request(&Request::Dml {
            sql: sql.to_string(),
            params: params.to_vec(),
        })?;
        Ok(())
    }

    pub fn stats(&mut self) -> Result<Json, ClientError> {
        self.request(&Request::Stats)
    }

    /// Force one admission re-validation sweep; returns the sweep summary
    /// (`sweep`, `samples_folded`, `redegraded`, `flagged`, ...).
    pub fn revalidate(&mut self) -> Result<Json, ClientError> {
        self.request(&Request::Revalidate)
    }

    /// Recompute the store's data placement from its current contents
    /// (quantile split points per namespace); returns the post-rebalance
    /// `shard_balance` report.
    pub fn rebalance(&mut self) -> Result<Json, ClientError> {
        self.request(&Request::Rebalance)
    }

    /// Checkpoint the server's durable state now (rotates the WAL and
    /// compacts it behind the snapshot); returns the snapshot summary.
    /// Errors on servers running without durability.
    pub fn snapshot(&mut self) -> Result<Json, ClientError> {
        self.request(&Request::Snapshot)
    }

    /// Audit a *prepared* statement: returns the static auditor's report
    /// (the `explain` object — bound-derivation tree with provenance,
    /// cost-term attribution, and structured diagnostics) for the plan as
    /// currently installed. Errors when `name` is not registered.
    pub fn explain(&mut self, name: &str) -> Result<Json, ClientError> {
        let response = self.request(&Request::Explain {
            name: Some(name.to_string()),
            sql: None,
        })?;
        explain_field(response)
    }

    /// Audit a *candidate* statement without registering it: the same
    /// report as [`Client::explain`], for SQL compiled against the
    /// server's catalog on the fly. Rejections don't error — they come
    /// back as the report's `outcome`/`diagnostics`.
    pub fn explain_sql(&mut self, sql: &str) -> Result<Json, ClientError> {
        let response = self.request(&Request::Explain {
            name: None,
            sql: Some(sql.to_string()),
        })?;
        explain_field(response)
    }

    /// Start a [`Pipeline`]: queue any number of requests, then
    /// [`Pipeline::flush`] them as one write and collect the responses
    /// positionally — N statements, ~1 round trip.
    pub fn pipeline(&mut self) -> Pipeline<'_> {
        Pipeline {
            client: self,
            buffer: Vec::new(),
            pending: Vec::new(),
        }
    }

    /// Ship `requests` as one `batch` line and return the per-sub-request
    /// response envelopes, positionally, as the response holds them (no
    /// envelope is copied). The protocol exchange succeeding does not mean
    /// every sub-request did — inspect each entry's `ok` (a failing
    /// sub-request does not abort the ones after it).
    pub fn execute_batch(&mut self, requests: &[Request]) -> Result<JsonArr, ClientError> {
        let response = self.request(&Request::Batch {
            requests: requests.to_vec(),
        })?;
        match take_field(response, "results") {
            Some(Json::Arr(results)) => Ok(results),
            _ => Err(ClientError::Proto(ProtoError::Malformed(
                "missing results".into(),
            ))),
        }
    }

    /// Testing hook: a clone of the underlying stream, for writing raw
    /// (possibly malformed) lines past the typed API.
    pub fn raw_stream(&self) -> io::Result<TcpStream> {
        self.writer.try_clone()
    }

    /// Testing hook: read and decode one raw response frame (the id, if
    /// any, attached in-body whatever the codec).
    pub fn raw_read_line(&mut self) -> Result<Json, ClientError> {
        self.read_response()
    }
}

/// A handle over a [`Client`] that queues requests locally and ships them
/// all in one write. Each queued request gets a client-assigned id, so
/// the server may answer in completion order; [`Pipeline::flush`] matches
/// responses back to queue positions. Dropping an unflushed pipeline
/// transmits nothing.
pub struct Pipeline<'a> {
    client: &'a mut Client,
    /// Encoded-but-untransmitted request frames.
    buffer: Vec<u8>,
    /// Ids of queued requests, in queue order.
    pending: Vec<RequestId>,
}

impl Pipeline<'_> {
    /// Queue one request; returns its position among this pipeline's
    /// results. Nothing is transmitted until [`Pipeline::flush`].
    pub fn queue(&mut self, request: &Request) -> usize {
        let id = RequestId::Int(self.client.next_id);
        self.client.next_id += 1;
        self.client.wire.encode_envelope(
            &Envelope {
                id: Some(id.clone()),
                request: request.clone(),
            },
            &mut self.buffer,
        );
        self.pending.push(id);
        self.pending.len() - 1
    }

    /// Convenience: queue an `execute` of a registered statement.
    pub fn queue_execute(&mut self, name: &str, params: &[ParamValue]) -> usize {
        self.queue(&Request::Execute {
            name: name.to_string(),
            params: params.to_vec(),
            cursor: None,
        })
    }

    /// Queued requests not yet flushed.
    pub fn len(&self) -> usize {
        self.pending.len()
    }

    pub fn is_empty(&self) -> bool {
        self.pending.is_empty()
    }

    /// Send every queued request in one write and collect the raw
    /// response envelopes, positionally, whatever order the server
    /// completed them in. Per-request failures ride in their envelope
    /// (`ok:false`); `Err` here means the exchange itself broke. The
    /// pipeline is empty again afterwards and can be reused.
    pub fn flush(&mut self) -> Result<Vec<Json>, ClientError> {
        if self.pending.is_empty() {
            return Ok(Vec::new());
        }
        self.client.writer.write_all(&self.buffer)?;
        self.client.writer.flush()?;
        self.buffer.clear();
        let mut slots: Vec<Option<Json>> = self.pending.iter().map(|_| None).collect();
        for _ in 0..slots.len() {
            let response = self.client.read_response()?;
            let id = response
                .get("id")
                .map(RequestId::from_json)
                .transpose()
                .map_err(ClientError::Proto)?
                .ok_or_else(|| {
                    ClientError::Proto(ProtoError::Malformed(
                        "pipelined response carries no id".into(),
                    ))
                })?;
            let slot = self
                .pending
                .iter()
                .position(|p| *p == id)
                .filter(|&i| slots[i].is_none())
                .ok_or_else(|| {
                    ClientError::Proto(ProtoError::Malformed(format!(
                        "response for unknown or duplicate id '{id}'"
                    )))
                })?;
            slots[slot] = Some(response);
        }
        self.pending.clear();
        Ok(slots
            .into_iter()
            .map(|s| s.expect("every slot filled"))
            .collect())
    }
}

/// Move `key`'s value out of a response envelope the caller owns.
fn take_field(response: Json, key: &str) -> Option<Json> {
    match response {
        Json::Obj(fields) => fields
            .into_iter()
            .find_map(|(k, value)| (k.as_str() == key).then_some(value)),
        _ => None,
    }
}

/// Extract the `explain` object from an `explain` response envelope.
fn explain_field(response: Json) -> Result<Json, ClientError> {
    take_field(response, "explain")
        .ok_or_else(|| ClientError::Proto(ProtoError::Malformed("missing explain".into())))
}

/// Decode an `execute`/`cursor-next` response envelope into a [`Page`]
/// (public so pipeline and batch callers can decode positional results).
pub fn decode_page(response: &Json) -> Result<Page, ClientError> {
    let malformed = |what: &str| ClientError::Proto(ProtoError::Malformed(what.into()));
    let page = response
        .get("rows")
        .and_then(Json::as_arr)
        .ok_or_else(|| malformed("missing rows"))?;
    let mut rows = Vec::with_capacity(page.len());
    for row in page {
        let row = row.as_arr().ok_or_else(|| malformed("row not array"))?;
        let mut values = Vec::with_capacity(row.len());
        for v in row {
            values.push(value_from_json(v).map_err(ClientError::Proto)?);
        }
        rows.push(Tuple::new(values));
    }
    let cursor = match response.get("cursor") {
        None | Some(Json::Null) => None,
        Some(Json::Str(hex)) => {
            let bytes = hex_decode(hex).ok_or_else(|| {
                ClientError::Proto(ProtoError::Malformed("cursor is not hex".into()))
            })?;
            Some(
                Cursor::from_bytes(&bytes)
                    .map_err(|e| ClientError::Proto(ProtoError::Malformed(e.to_string())))?,
            )
        }
        Some(other) => {
            return Err(ClientError::Proto(ProtoError::Malformed(format!(
                "bad cursor field: {}",
                other
            ))))
        }
    };
    Ok(Page { rows, cursor })
}
