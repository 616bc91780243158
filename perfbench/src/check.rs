//! Is every answer right? Each response is checked against the request
//! that caused it; after the write workloads the data itself is checked.

use crate::data::Stack;
use crate::gen::{thought_ts, Meta, Shape, Stream};
use crate::spec::{self, Kind, Workload};
use piql_core::plan::params::Params;
use piql_core::tuple::Tuple;
use piql_core::value::Value;
use piql_kv::{KvStore, Session};
use piql_server::{decode_page, Json, Wire};
use piql_workloads::{scadr, tpcw};

const PAGE: usize = 10;
const SEARCH_LIMIT: usize = 50;

fn is_ok(response: &Json) -> bool {
    response.get("ok").and_then(Json::as_bool) == Some(true)
}

fn rows(response: &Json) -> Option<Vec<Tuple>> {
    is_ok(response)
        .then(|| decode_page(response).ok())
        .flatten()
        .map(|page| page.rows)
}

/// The single row of a primary-key lookup, whose first column echoes the
/// requested key.
fn echoes(response: &Json, key: &Value) -> bool {
    rows(response).is_some_and(|r| r.len() == 1 && r[0].get(0) == Some(key))
}

fn at_most(response: &Json, limit: usize) -> bool {
    rows(response).is_some_and(|r| r.len() <= limit)
}

/// At most a page of rows, newest first by column 1; `owner` pins column 0.
fn page_newest_first(response: &Json, owner: Option<&Value>) -> bool {
    let Some(rows) = rows(response) else {
        return false;
    };
    let ts = |t: &Tuple| match t.get(1) {
        Some(Value::Timestamp(ts)) => Some(*ts),
        _ => None,
    };
    rows.len() <= PAGE
        && rows.iter().all(|t| ts(t).is_some())
        && rows.windows(2).all(|w| ts(&w[0]) >= ts(&w[1]))
        && owner.is_none_or(|o| rows.iter().all(|t| t.get(0) == Some(o)))
}

/// How many statements of the request `meta` describes were answered
/// correctly by `response`.
fn ok_statements(kind: Kind, meta: &Meta, response: &Json) -> u64 {
    let user = || Value::Varchar(scadr::username(meta.key as usize));
    let customer = || Value::Varchar(tpcw::customer_uname(meta.key as usize));
    match kind {
        Kind::PointV3 => echoes(response, &user()) as u64,
        Kind::Post => is_ok(response) as u64,
        Kind::HomeV2 | Kind::TpcwMix => {
            let Some(results) = response.get("results").and_then(Json::as_arr) else {
                return 0;
            };
            if !is_ok(response) || results.len() != meta.stmts as usize {
                return 0;
            }
            let good = |i: usize, r: &Json| match (meta.shape, i) {
                (Shape::Scadr, 0) => echoes(r, &user()),
                (Shape::Scadr, 1) => at_most(r, spec::SCADR_SUBSCRIPTIONS_PER_USER),
                (Shape::Scadr, 2) => page_newest_first(r, Some(&user())),
                (Shape::Scadr, _) => page_newest_first(r, None),
                (Shape::Home, 0) | (Shape::OrderDisplay, 0) => echoes(r, &customer()),
                (Shape::Home, _) => at_most(r, 5),
                (Shape::ProductDetail, _) => echoes(r, &Value::Int(meta.key as i32)),
                (Shape::NewProducts | Shape::SearchAuthor | Shape::SearchTitle, _) => {
                    at_most(r, SEARCH_LIMIT)
                }
                (Shape::OrderDisplay, 1) => at_most(r, 1),
                (Shape::OrderDisplay, _) => at_most(r, 3),
                // cart, its lines, [the cart read back], order, its lines
                (Shape::BuyRequest, i) if i == 1 + meta.aux as usize => {
                    rows(r).is_some_and(|rows| rows.len() == meta.aux as usize)
                }
                (Shape::BuyRequest, _) => is_ok(r),
            };
            results
                .iter()
                .enumerate()
                .filter(|(i, r)| good(*i, r))
                .count() as u64
        }
    }
}

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ *b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Per-connection response checker and statement tally.
pub struct Checker {
    kind: Kind,
    wire: &'static dyn Wire,
    /// `point_v3` only: digest of the verified response frame per key. The
    /// table never changes and the request id is the key, so a key's
    /// frame is the same every time: the first is decoded and checked in
    /// full, later ones are compared to it. This keeps the load
    /// generator's share of the CPU small where the server's is smallest.
    digests: Vec<u64>,
    pub ok: u64,
    pub failed: u64,
    /// First few failures, for the report.
    pub examples: Vec<String>,
}

impl Checker {
    pub fn new(w: &Workload) -> Checker {
        Checker {
            kind: w.kind,
            wire: crate::gen::wire(w.kind),
            digests: match w.kind {
                Kind::PointV3 => vec![0; spec::SCADR_USERS],
                _ => Vec::new(),
            },
            ok: 0,
            failed: 0,
            examples: Vec::new(),
        }
    }

    /// Responses arrive in request order (binary) rather than tagged
    /// with the id to match them by (JSON).
    pub fn positional(&self) -> bool {
        self.wire.version() == 3
    }

    /// Decode a response frame to its id and body.
    pub fn decode(&mut self, frame: &[u8]) -> Option<(Option<i64>, Json)> {
        match self.wire.decode_response(frame) {
            Ok((id, body)) => {
                let id = match id {
                    Some(piql_server::RequestId::Int(i)) => Some(i),
                    _ => None,
                };
                Some((id, body))
            }
            Err(e) => {
                self.note(format!("undecodable response: {e}"));
                None
            }
        }
    }

    /// Check the response to the request `meta` describes, given as the
    /// raw frame, and tally its statements.
    pub fn check_frame(&mut self, meta: &Meta, frame: &[u8]) {
        if self.kind == Kind::PointV3 {
            let digest = fnv1a(frame);
            if self.digests[meta.key as usize] == digest {
                self.ok += 1;
                return;
            }
            match self.decode(frame) {
                Some((_, body)) => {
                    if self.check(meta, &body) {
                        self.digests[meta.key as usize] = digest;
                    }
                }
                None => self.failed += 1,
            }
            return;
        }
        match self.decode(frame) {
            Some((_, body)) => {
                self.check(meta, &body);
            }
            None => self.failed += meta.stmts as u64,
        }
    }

    /// Check a decoded response; true when every statement was right.
    pub fn check(&mut self, meta: &Meta, body: &Json) -> bool {
        let ok = ok_statements(self.kind, meta, body);
        let failed = meta.stmts as u64 - ok;
        self.ok += ok;
        self.failed += failed;
        if failed > 0 {
            let mut text = body.to_string();
            text.truncate(300);
            self.note(format!("{meta:?}: {failed} wrong in {text}"));
        }
        failed == 0
    }

    /// Statements that never got an answer.
    pub fn unanswered(&mut self, stmts: u64, why: &str) {
        self.failed += stmts;
        self.note(format!("{stmts} statements unanswered: {why}"));
    }

    fn note(&mut self, example: String) {
        if self.examples.len() < 5 {
            self.examples.push(example);
        }
    }
}

/// After inserts of thoughts: the first `sent` requests of `stream` and
/// `others` more inserts were acknowledged, so the table holds preload +
/// `sent` + `others` rows, and a sample of the stream's keys reads back.
/// Run on the live stack, or on the stack recovered after the log was
/// killed as `kill -9` would. Returns the number of missing rows.
pub fn missing_thoughts(stack: &Stack, stream: &Stream, sent: usize, others: usize) -> u64 {
    let thoughts = stack.cluster.namespace("t/thoughts");
    let expected = spec::SCADR_USERS * spec::SCADR_THOUGHTS_PER_USER + sent + others;
    let mut missing = expected.saturating_sub(stack.cluster.ns_len(thoughts)) as u64;
    let by_key = stack
        .db
        .prepare("SELECT * FROM thoughts WHERE owner = <o> AND timestamp = <t>")
        .expect("prepare read-back");
    let mut session = Session::new();
    for i in (0..sent).step_by((sent / 1_000).max(1)) {
        let meta = stream.meta(i);
        let params = Params::from_values([
            Value::Varchar(scadr::username(meta.key as usize)),
            Value::Timestamp(thought_ts(&meta)),
        ]);
        let found = stack
            .db
            .execute(&mut session, &by_key, &params)
            .map(|r| r.rows.len())
            .unwrap_or(0);
        missing += (found != 1) as u64;
    }
    missing
}

/// After `tpcw_mix`: a sample of the orders placed by the first `sent`
/// requests reads back with all its lines. Returns the number of wrong
/// read-backs.
pub fn missing_orders(stack: &Stack, stream: &Stream, sent: usize) -> u64 {
    let mut session = Session::new();
    let buys: Vec<Meta> = (0..sent)
        .map(|i| stream.meta(i))
        .filter(|m| m.shape == Shape::BuyRequest)
        .collect();
    let step = (buys.len() / 1_000).max(1);
    let mut missing = 0;
    for meta in buys.iter().step_by(step) {
        let params = Params::from_values([Value::Int(meta.key as i32)]);
        let lines = stack
            .registry
            .execute(&mut session, "od_lines", &params, None)
            .map(|r| r.rows.len())
            .unwrap_or(0);
        if lines != meta.aux as usize {
            missing += 1;
        }
    }
    missing
}
