//! Seeded request streams. Everything a run sends is drawn here, into
//! memory, before the clock starts: keys, parameters, fresh ids, arrival
//! times. The same seed gives the same stream.

use crate::data;
use crate::spec::{self, Kind, Workload};
use piql_core::plan::params::ParamValue;
use piql_core::value::Value;
use piql_scenario::Zipfian;
use piql_server::{BinaryWire, Envelope, JsonWire, Request, RequestId, Wire};
use piql_workloads::{scadr, tpcw};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;

/// Timestamps of generated thoughts and orders: after every preloaded one.
const TS_BASE: i64 = 1_400_000_000_000_000;

const INSERT_CART: &str = "INSERT INTO shopping_cart (sc_id, sc_time) VALUES (<cart>, <now>)";
const INSERT_CART_LINE: &str = "INSERT INTO shopping_cart_line (scl_sc_id, scl_i_id, scl_qty) \
     VALUES (<cart>, <item>, <qty>)";
const INSERT_ORDER: &str = "INSERT INTO orders (o_id, o_c_uname, o_date_time, o_total, o_status) \
     VALUES (<o>, <uname>, <now>, 99.5, 'PENDING')";
const INSERT_ORDER_LINE: &str = "INSERT INTO order_line (ol_o_id, ol_id, ol_i_id, ol_qty) \
     VALUES (<o>, <l>, <item>, 1)";

/// The TPC-W interaction a request carries (the paper's ordering mix as
/// `piql_workloads::tpcw` approximates it).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// Every SCADr request: the key is the user.
    Scadr,
    Home,
    NewProducts,
    ProductDetail,
    SearchAuthor,
    SearchTitle,
    OrderDisplay,
    BuyRequest,
}

/// What the checker needs to know about one request.
#[derive(Debug, Clone, Copy)]
pub struct Meta {
    pub shape: Shape,
    /// User / customer / item index; for `BuyRequest` the new order id.
    pub key: u32,
    /// `BuyRequest`: lines in the cart. `Post`: the thought's
    /// timestamp offset from [`TS_BASE`].
    pub aux: u32,
    pub stmts: u8,
}

/// Ids a stream has used up, shared by every stream of one process so
/// that no two inserts collide (colliding draws are dropped here, at
/// generation, so no statement fails at run time).
pub struct Ids {
    next_ts: i64,
    next_seq: i64,
    used: HashSet<i32>,
}

impl Ids {
    pub fn new(kind: Kind) -> Ids {
        let mut used = HashSet::new();
        if kind == Kind::TpcwMix {
            let n_orders = spec::TPCW_CUSTOMERS;
            used.extend((0..n_orders).map(|i| tpcw::initial_order_id(i, n_orders)));
            // the seed carts `tpcw::setup` spreads over the id space
            let n_seed = 64i64;
            used.extend((0..n_seed).map(|i| ((i + 1) * ((i32::MAX as i64) / (n_seed + 1))) as i32));
        }
        Ids {
            next_ts: 0,
            next_seq: 1,
            used,
        }
    }

    fn fresh_id(&mut self) -> i32 {
        loop {
            let id = tpcw::spread_id(self.next_seq);
            self.next_seq += 1;
            if self.used.insert(id) {
                return id;
            }
        }
    }

    fn fresh_ts(&mut self) -> i64 {
        self.next_ts += 1;
        self.next_ts
    }
}

/// A multiplier coprime to `n`, so `rank -> rank * m % n` is a bijection:
/// hot ranks scatter over the key space instead of sharing one shard.
fn scramble_multiplier(n: u64) -> u64 {
    fn gcd(a: u64, b: u64) -> u64 {
        if b == 0 {
            a
        } else {
            gcd(b, a % b)
        }
    }
    (2_654_435_761u64..)
        .step_by(2)
        .find(|m| gcd(*m, n) == 1)
        .expect("an odd number coprime to n exists")
}

struct Keys {
    zipf: Zipfian,
    n: u64,
    mul: u64,
}

impl Keys {
    fn new(n: usize) -> Keys {
        Keys {
            zipf: Zipfian::new(n as u64, spec::ZIPF_THETA),
            n: n as u64,
            mul: scramble_multiplier(n as u64),
        }
    }

    fn draw(&self, rng: &mut StdRng) -> u32 {
        (self.zipf.sample(rng) * self.mul % self.n) as u32
    }
}

fn varchar(s: String) -> ParamValue {
    Value::Varchar(s).into()
}

fn execute(name: &str, params: Vec<ParamValue>) -> Request {
    Request::Execute {
        name: name.to_string(),
        params,
        cursor: None,
    }
}

fn dml(sql: &str, params: Vec<ParamValue>) -> Request {
    Request::Dml {
        sql: sql.to_string(),
        params,
    }
}

pub fn thought_ts(meta: &Meta) -> i64 {
    TS_BASE + meta.aux as i64
}

pub struct Generator {
    kind: Kind,
    rng: StdRng,
    /// Users (SCADr) or customers (TPC-W).
    people: Keys,
    items: Keys,
    post_sql: String,
    /// TPC-W: the interactions still to come off the deck, and the Buy
    /// Requests so far (their carts hold 1, 2, 3, 1, ... lines).
    deck: Vec<u8>,
    buys: usize,
}

impl Generator {
    pub fn new(w: &Workload, seed: u64) -> Generator {
        let people = match w.kind {
            Kind::TpcwMix => spec::TPCW_CUSTOMERS,
            _ => spec::SCADR_USERS,
        };
        Generator {
            kind: w.kind,
            rng: StdRng::seed_from_u64(seed),
            people: Keys::new(people),
            items: Keys::new(spec::TPCW_ITEMS),
            post_sql: scadr::queries(&data::scadr_config()).post_thought,
            deck: Vec::new(),
            buys: 0,
        }
    }

    /// The request of the read-only workloads is a function of its key.
    fn keyed_request(&self, key: u32) -> Request {
        let user = || vec![varchar(scadr::username(key as usize))];
        match self.kind {
            Kind::PointV3 => execute("find_user", user()),
            Kind::HomeV2 => Request::Batch {
                requests: data::SCADR_READS
                    .iter()
                    .map(|name| execute(name, user()))
                    .collect(),
            },
            _ => unreachable!("only the read-only workloads are keyed"),
        }
    }

    /// Statements in a keyed request.
    fn keyed_stmts(&self) -> u8 {
        match self.kind {
            Kind::HomeV2 => data::SCADR_READS.len() as u8,
            _ => 1,
        }
    }

    /// Draw the next request.
    pub fn next(&mut self, ids: &mut Ids) -> (Meta, Request) {
        match self.kind {
            Kind::PointV3 | Kind::HomeV2 => {
                let key = self.people.draw(&mut self.rng);
                (
                    Meta {
                        shape: Shape::Scadr,
                        key,
                        aux: 0,
                        stmts: self.keyed_stmts(),
                    },
                    self.keyed_request(key),
                )
            }
            Kind::Post => {
                let key = self.people.draw(&mut self.rng);
                let ts = ids.fresh_ts();
                let request = dml(
                    &self.post_sql,
                    vec![
                        varchar(scadr::username(key as usize)),
                        Value::Timestamp(TS_BASE + ts).into(),
                        varchar(format!(
                            "thought {ts:08} posted by the benchmark's load generator"
                        )),
                    ],
                );
                (
                    Meta {
                        shape: Shape::Scadr,
                        key,
                        aux: ts as u32,
                        stmts: 1,
                    },
                    request,
                )
            }
            Kind::TpcwMix => self.next_interaction(ids),
        }
    }

    /// The next interaction's place on the mix's 0..1 scale. Interactions
    /// come off a shuffled deck of 100, one card per hundredth, so every
    /// hundred requests hold the mix's exact shares whatever the seed: drawn
    /// one by one, the share of the dear Buy Requests differed by a percent
    /// between seeds, and the allocations per statement with it.
    fn deal(&mut self) -> f64 {
        if self.deck.is_empty() {
            self.deck = (0..100).collect();
            for i in (1..self.deck.len()).rev() {
                self.deck.swap(i, self.rng.gen_range(0..i + 1));
            }
        }
        (self.deck.pop().expect("a fresh deck") as f64 + 0.5) / 100.0
    }

    fn next_interaction(&mut self, ids: &mut Ids) -> (Meta, Request) {
        let dice = self.deal();
        let customer = self.people.draw(&mut self.rng);
        let uname = || varchar(tpcw::customer_uname(customer as usize));
        let pick = |rng: &mut StdRng, words: &[&str]| {
            varchar(words[rng.gen_range(0..words.len())].to_string())
        };
        let (shape, key, aux, requests) = if dice < 0.14 {
            let promos: Vec<Value> = (0..5)
                .map(|_| Value::Int(self.items.draw(&mut self.rng) as i32))
                .collect();
            let requests = vec![
                execute("home_customer", vec![uname()]),
                execute("home_promotions", vec![promos.into()]),
            ];
            (Shape::Home, customer, 0, requests)
        } else if dice < 0.25 {
            let subject = pick(&mut self.rng, &tpcw::SUBJECTS);
            let requests = vec![execute("new_products", vec![subject])];
            (Shape::NewProducts, 0, 0, requests)
        } else if dice < 0.41 {
            let item = self.items.draw(&mut self.rng);
            let requests = vec![execute(
                "product_detail",
                vec![Value::Int(item as i32).into()],
            )];
            (Shape::ProductDetail, item, 0, requests)
        } else if dice < 0.50 {
            let name = pick(&mut self.rng, &tpcw::SURNAMES);
            (
                Shape::SearchAuthor,
                0,
                0,
                vec![execute("search_author", vec![name])],
            )
        } else if dice < 0.59 {
            let word = pick(&mut self.rng, &tpcw::TITLE_WORDS);
            (
                Shape::SearchTitle,
                0,
                0,
                vec![execute("search_title", vec![word])],
            )
        } else if dice < 0.72 {
            // the customer's preloaded order stands in for the id the
            // real interaction reads out of the second query's answer
            let order = tpcw::initial_order_id(customer as usize, spec::TPCW_CUSTOMERS);
            let requests = vec![
                execute("od_customer", vec![uname()]),
                execute("od_last_order", vec![uname()]),
                execute("od_lines", vec![Value::Int(order).into()]),
            ];
            (Shape::OrderDisplay, customer, 0, requests)
        } else {
            let cart = ids.fresh_id();
            let order = ids.fresh_id();
            let now: ParamValue = Value::Timestamp(TS_BASE + ids.fresh_ts()).into();
            let mut line_items: Vec<i32> = Vec::new();
            self.buys += 1;
            for _ in 0..1 + self.buys % 3 {
                let item = self.items.draw(&mut self.rng) as i32;
                if !line_items.contains(&item) {
                    line_items.push(item);
                }
            }
            let int = |v: i32| -> ParamValue { Value::Int(v).into() };
            let mut requests = vec![dml(INSERT_CART, vec![int(cart), now.clone()])];
            for item in &line_items {
                let qty = self.rng.gen_range(1..4);
                requests.push(dml(INSERT_CART_LINE, vec![int(cart), int(*item), int(qty)]));
            }
            requests.push(execute("buy_cart", vec![int(cart)]));
            requests.push(dml(INSERT_ORDER, vec![int(order), uname(), now]));
            for (l, item) in line_items.iter().enumerate() {
                requests.push(dml(
                    INSERT_ORDER_LINE,
                    vec![int(order), int(l as i32), int(*item)],
                ));
            }
            (
                Shape::BuyRequest,
                order as u32,
                line_items.len() as u32,
                requests,
            )
        };
        let stmts = requests.len() as u8;
        (
            Meta {
                shape,
                key,
                aux,
                stmts,
            },
            Request::Batch { requests },
        )
    }
}

pub fn wire(kind: Kind) -> &'static dyn Wire {
    match kind {
        Kind::PointV3 | Kind::Post => &BinaryWire,
        Kind::HomeV2 | Kind::TpcwMix => &JsonWire,
    }
}

/// Append the framed request, tagged with `id`.
pub fn encode(wire: &dyn Wire, id: i64, request: Request, out: &mut Vec<u8>) {
    wire.encode_envelope(
        &Envelope {
            id: Some(RequestId::Int(id)),
            request,
        },
        out,
    );
}

/// A drawn key of the read-only workloads, kept narrow because a run
/// draws tens of millions of them.
type Key = u16;
const _: () = assert!(spec::SCADR_USERS <= Key::MAX as usize + 1);

enum Frames {
    /// Read-only workloads: one pre-encoded frame per distinct key (its
    /// request id is the key), and the drawn key sequence.
    PerKey {
        table: Vec<Vec<u8>>,
        keys: Vec<Key>,
        stmts: u8,
    },
    /// One pre-encoded frame per request; its id is its position.
    Each {
        frames: Vec<Vec<u8>>,
        meta: Vec<Meta>,
    },
}

/// A pre-drawn, pre-encoded request stream.
pub struct Stream {
    frames: Frames,
    /// Open loop: when each request is due, ns after the start.
    pub due_ns: Vec<u64>,
}

impl Stream {
    /// Draw `n` requests; `rate` (requests/s) adds Poisson arrival times.
    pub fn draw(w: &Workload, seed: u64, n: usize, ids: &mut Ids, rate: Option<f64>) -> Stream {
        let mut gen = Generator::new(w, seed);
        let wire = wire(w.kind);
        let frames = match w.kind {
            Kind::PointV3 | Kind::HomeV2 => {
                let table = (0..gen.people.n as u32)
                    .map(|key| {
                        let mut frame = Vec::new();
                        encode(wire, key as i64, gen.keyed_request(key), &mut frame);
                        frame
                    })
                    .collect();
                let keys = (0..n)
                    .map(|_| gen.people.draw(&mut gen.rng) as Key)
                    .collect();
                Frames::PerKey {
                    table,
                    keys,
                    stmts: gen.keyed_stmts(),
                }
            }
            _ => {
                let mut frames = Vec::with_capacity(n);
                let mut meta = Vec::with_capacity(n);
                for i in 0..n {
                    let (m, request) = gen.next(ids);
                    let mut frame = Vec::new();
                    encode(wire, i as i64, request, &mut frame);
                    frames.push(frame);
                    meta.push(m);
                }
                Frames::Each { frames, meta }
            }
        };
        let due_ns = match rate {
            None => Vec::new(),
            Some(rate) => {
                // arrival times come from their own generator so the
                // request sequence does not depend on the rate
                let mut rng = StdRng::seed_from_u64(seed ^ 0xA221_7A15);
                let mut t = 0.0f64;
                (0..n)
                    .map(|_| {
                        let u: f64 = rng.gen();
                        t += -(1.0 - u).ln() / rate;
                        (t * 1e9) as u64
                    })
                    .collect()
            }
        };
        Stream { frames, due_ns }
    }

    pub fn len(&self) -> usize {
        match &self.frames {
            Frames::PerKey { keys, .. } => keys.len(),
            Frames::Each { frames, .. } => frames.len(),
        }
    }

    pub fn frame(&self, i: usize) -> &[u8] {
        match &self.frames {
            Frames::PerKey { table, keys, .. } => &table[keys[i] as usize],
            Frames::Each { frames, .. } => &frames[i],
        }
    }

    pub fn meta(&self, i: usize) -> Meta {
        match &self.frames {
            Frames::PerKey { keys, stmts, .. } => Meta {
                shape: Shape::Scadr,
                key: keys[i] as u32,
                aux: 0,
                stmts: *stmts,
            },
            Frames::Each { meta, .. } => meta[i],
        }
    }

    /// The id request `i` was sent with.
    pub fn id(&self, i: usize) -> i64 {
        match &self.frames {
            Frames::PerKey { keys, .. } => keys[i] as i64,
            Frames::Each { .. } => i as i64,
        }
    }
}
