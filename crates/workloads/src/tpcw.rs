//! TPC-W — the customer-facing query subset the paper evaluates (§8.1.1).
//!
//! Nine web interactions (the Table 1 rows): Home, New Products, Product
//! Detail, Search by Author, Search by Title, the three Order Display
//! queries, and Buy Request. "Best Sellers" and "Admin Confirm" are
//! analytical and excluded, as in the paper. The *ordering mix* is
//! approximated over these interactions so that ~30% of interactions
//! perform updates (cart and order creation).
//!
//! Schema notes (deviations from the benchmark's specification):
//! * the paper's one required modification — a cardinality constraint on
//!   shopping-cart size — appears on `shopping_cart_line(scl_sc_id)`, and
//!   its mirror on `order_line(ol_o_id)`;
//! * author-name search is bounded with this reproduction's
//!   `CARDINALITY LIMIT 25 (TOKEN(a_lname))` extension (the paper leaves
//!   the author-side bound implicit).

use crate::driver::Workload;
use crate::fill;
use piql_core::plan::params::Params;
use piql_core::value::{Value, ValueRef};
use piql_engine::{Database, DbError, ExecStrategy, Prepared};
use piql_kv::{KvStore, Session};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicI64, Ordering};

/// TPC-W sizing. The paper keeps 10,000 items constant and scales
/// customers with the cluster; we do the same at laptop scale.
#[derive(Debug, Clone)]
pub struct TpcwConfig {
    pub items: usize,
    pub customers_per_node: usize,
    /// Orders pre-loaded per customer.
    pub orders_per_customer: usize,
    pub cart_limit: u64,
    pub seed: u64,
}

impl Default for TpcwConfig {
    fn default() -> Self {
        TpcwConfig {
            items: 10_000,
            customers_per_node: 150,
            orders_per_customer: 1,
            cart_limit: 100,
            seed: 0x7BC1,
        }
    }
}

pub const SUBJECTS: [&str; 24] = [
    "ARTS",
    "BIOGRAPHIES",
    "BUSINESS",
    "CHILDREN",
    "COMPUTERS",
    "COOKING",
    "HEALTH",
    "HISTORY",
    "HOME",
    "HUMOR",
    "LITERATURE",
    "MYSTERY",
    "NONFICTION",
    "PARENTING",
    "POLITICS",
    "REFERENCE",
    "RELIGION",
    "ROMANCE",
    "SELFHELP",
    "SCIENCE",
    "SCIFI",
    "SPORTS",
    "TRAVEL",
    "YOUTH",
];

pub const TITLE_WORDS: [&str; 40] = [
    "shadow", "river", "empire", "garden", "winter", "summer", "night", "crystal", "silent",
    "broken", "golden", "hidden", "lost", "ancient", "burning", "frozen", "scarlet", "emerald",
    "iron", "velvet", "thunder", "whisper", "raven", "falcon", "harbor", "meadow", "canyon",
    "ember", "willow", "stone", "glass", "paper", "copper", "silver", "marble", "cedar", "amber",
    "ivory", "cobalt", "crimson",
];

pub const SURNAMES: [&str; 50] = [
    "Smith",
    "Johnson",
    "Williams",
    "Brown",
    "Jones",
    "Garcia",
    "Miller",
    "Davis",
    "Rodriguez",
    "Martinez",
    "Hernandez",
    "Lopez",
    "Gonzalez",
    "Wilson",
    "Anderson",
    "Thomas",
    "Taylor",
    "Moore",
    "Jackson",
    "Martin",
    "Lee",
    "Perez",
    "Thompson",
    "White",
    "Harris",
    "Sanchez",
    "Clark",
    "Ramirez",
    "Lewis",
    "Robinson",
    "Walker",
    "Young",
    "Allen",
    "King",
    "Wright",
    "Scott",
    "Torres",
    "Nguyen",
    "Hill",
    "Flores",
    "Green",
    "Adams",
    "Nelson",
    "Baker",
    "Hall",
    "Rivera",
    "Campbell",
    "Mitchell",
    "Carter",
    "Roberts",
];

/// TPC-W DDL.
pub fn ddl(config: &TpcwConfig) -> Vec<String> {
    vec![
        "CREATE TABLE country ( \
           co_id INT NOT NULL, co_name VARCHAR(50), PRIMARY KEY (co_id) )"
            .into(),
        "CREATE TABLE address ( \
           addr_id INT NOT NULL, addr_street VARCHAR(40), addr_city VARCHAR(30), \
           addr_co_id INT, PRIMARY KEY (addr_id), \
           FOREIGN KEY (addr_co_id) REFERENCES country )"
            .into(),
        "CREATE TABLE customer ( \
           c_uname VARCHAR(20) NOT NULL, c_passwd VARCHAR(20), \
           c_fname VARCHAR(17), c_lname VARCHAR(17), c_addr_id INT, \
           c_discount DOUBLE, PRIMARY KEY (c_uname), \
           FOREIGN KEY (c_addr_id) REFERENCES address )"
            .into(),
        "CREATE TABLE author ( \
           a_id INT NOT NULL, a_fname VARCHAR(20), a_lname VARCHAR(20), \
           PRIMARY KEY (a_id), \
           CARDINALITY LIMIT 25 (TOKEN(a_lname)) )"
            .into(),
        "CREATE TABLE item ( \
           i_id INT NOT NULL, i_title VARCHAR(60), i_a_id INT, \
           i_subject VARCHAR(20), i_pub_date TIMESTAMP, i_cost DOUBLE, \
           i_stock INT, PRIMARY KEY (i_id), \
           FOREIGN KEY (i_a_id) REFERENCES author )"
            .into(),
        "CREATE TABLE orders ( \
           o_id INT NOT NULL, o_c_uname VARCHAR(20), o_date_time TIMESTAMP, \
           o_total DOUBLE, o_status VARCHAR(16), PRIMARY KEY (o_id), \
           FOREIGN KEY (o_c_uname) REFERENCES customer )"
            .into(),
        format!(
            "CREATE TABLE order_line ( \
               ol_o_id INT NOT NULL, ol_id INT NOT NULL, ol_i_id INT, ol_qty INT, \
               PRIMARY KEY (ol_o_id, ol_id), \
               FOREIGN KEY (ol_i_id) REFERENCES item, \
               FOREIGN KEY (ol_o_id) REFERENCES orders, \
               CARDINALITY LIMIT {} (ol_o_id) )",
            config.cart_limit
        ),
        "CREATE TABLE shopping_cart ( \
           sc_id INT NOT NULL, sc_time TIMESTAMP, PRIMARY KEY (sc_id) )"
            .into(),
        format!(
            "CREATE TABLE shopping_cart_line ( \
               scl_sc_id INT NOT NULL, scl_i_id INT NOT NULL, scl_qty INT, \
               PRIMARY KEY (scl_sc_id, scl_i_id), \
               FOREIGN KEY (scl_i_id) REFERENCES item, \
               CARDINALITY LIMIT {} (scl_sc_id) )",
            config.cart_limit
        ),
    ]
}

pub fn customer_uname(i: usize) -> String {
    format!("c{i:08}")
}

/// Initial order ids are spread uniformly over the positive i32 range so
/// range partitioning distributes them — and so ids minted at runtime
/// ([`spread_id`]) land across all partitions instead of hammering the
/// last one (monotonic keys are the classic range-partitioning hot-spot).
pub fn initial_order_id(i: usize, n_orders: usize) -> i32 {
    let step = (i32::MAX as i64) / (n_orders.max(1) as i64 + 1);
    ((i as i64 + 1) * step.max(1)) as i32
}

/// Pseudo-random positive id for runtime-created carts/orders (Fibonacci
/// hashing; collisions are handled by insert-retry).
pub fn spread_id(seq: i64) -> i32 {
    (((seq as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 33) & 0x7FFF_FFFF) as i32
}

/// Create schema and load data for an `n_nodes`-node cluster.
/// Returns (customers, items, initial orders).
pub fn setup<S: KvStore>(
    db: &Database<S>,
    config: &TpcwConfig,
    n_nodes: usize,
) -> Result<(usize, usize, usize), DbError> {
    for stmt in ddl(config) {
        db.execute_ddl(&stmt)?;
    }
    let mut rng = StdRng::seed_from_u64(config.seed);
    let n_customers = config.customers_per_node * n_nodes;
    let n_items = config.items;
    let n_authors = (n_items / 4).max(1);

    let (mut text, mut more) = (String::new(), String::new());
    db.bulk_load_with("country", |rows| {
        (0..92).try_for_each(|i| {
            rows.push(&[
                ValueRef::Int(i),
                ValueRef::Varchar(fill(&mut text, format_args!("country {i}"))),
            ])
        })
    })?;
    db.bulk_load_with("address", |rows| {
        (0..n_customers as i32).try_for_each(|i| {
            rows.push(&[
                ValueRef::Int(i),
                ValueRef::Varchar(fill(&mut text, format_args!("{i} main st"))),
                ValueRef::Varchar(fill(&mut more, format_args!("city{}", i % 997))),
                ValueRef::Int(i % 92),
            ])
        })
    })?;
    let unames: Vec<String> = (0..n_customers).map(customer_uname).collect();
    db.bulk_load_with("customer", |rows| {
        unames.iter().enumerate().try_for_each(|(i, uname)| {
            rows.push(&[
                ValueRef::Varchar(uname),
                ValueRef::Varchar(fill(&mut text, format_args!("pw{i}"))),
                ValueRef::Varchar(fill(&mut more, format_args!("First{}", i % 311))),
                ValueRef::Varchar(SURNAMES[i % SURNAMES.len()]),
                ValueRef::Int(i as i32),
                ValueRef::Double((i % 10) as f64 / 100.0),
            ])
        })
    })?;
    // authors: keep every surname token under the declared limit of 25 by
    // suffixing a serial number once a name is "full"
    db.bulk_load_with("author", |rows| {
        (0..n_authors).try_for_each(|i| {
            let base = SURNAMES[i % SURNAMES.len()];
            let gen = i / (SURNAMES.len() * 20); // ≤20 per surname per gen
            let lname = if gen == 0 {
                base
            } else {
                fill(&mut more, format_args!("{base}{gen}"))
            };
            rows.push(&[
                ValueRef::Int(i as i32),
                ValueRef::Varchar(fill(&mut text, format_args!("Auth{}", i % 409))),
                ValueRef::Varchar(lname),
            ])
        })
    })?;
    db.bulk_load_with("item", |rows| {
        (0..n_items).try_for_each(|i| {
            let w = |n: usize| TITLE_WORDS[(i * 7 + n * 13) % TITLE_WORDS.len()];
            rows.push(&[
                ValueRef::Int(i as i32),
                ValueRef::Varchar(fill(&mut text, format_args!("{} {} {}", w(1), w(2), w(3)))),
                ValueRef::Int(rng.gen_range(0..n_authors) as i32),
                ValueRef::Varchar(SUBJECTS[i % SUBJECTS.len()]),
                ValueRef::Timestamp(1_000_000_000_000_000 + (i as i64) * 86_400_000_000),
                ValueRef::Double(rng.gen_range(5.0..120.0)),
                ValueRef::Int(rng.gen_range(10..500)),
            ])
        })
    })?;
    let n_orders = n_customers * config.orders_per_customer;
    db.bulk_load_with("orders", |rows| {
        (0..n_orders).try_for_each(|i| {
            rows.push(&[
                ValueRef::Int(initial_order_id(i, n_orders)),
                ValueRef::Varchar(&unames[i % n_customers]),
                ValueRef::Timestamp(1_200_000_000_000_000 + (i as i64) * 61_000_000),
                ValueRef::Double(rng.gen_range(10.0..500.0)),
                ValueRef::Varchar("SHIPPED"),
            ])
        })
    })?;
    db.bulk_load_with("order_line", |rows| {
        for o in 0..n_orders {
            for l in 0..(1 + o % 3) {
                rows.push(&[
                    ValueRef::Int(initial_order_id(o, n_orders)),
                    ValueRef::Int(l as i32),
                    ValueRef::Int(rng.gen_range(0..n_items) as i32),
                    ValueRef::Int(rng.gen_range(1..4)),
                ])?;
            }
        }
        Ok(())
    })?;
    // seed carts across the id space so rebalance splits the cart
    // namespaces; runtime cart ids then spread over all partitions
    let n_seed = (n_nodes * 8).max(64);
    let cart = |i: usize| ((i as i64 + 1) * ((i32::MAX as i64) / (n_seed as i64 + 1))) as i32;
    db.bulk_load_with("shopping_cart", |rows| {
        (0..n_seed).try_for_each(|i| rows.push(&[ValueRef::Int(cart(i)), ValueRef::Timestamp(0)]))
    })?;
    db.bulk_load_with("shopping_cart_line", |rows| {
        (0..n_seed).try_for_each(|i| {
            rows.push(&[ValueRef::Int(cart(i)), ValueRef::Int(0), ValueRef::Int(1)])
        })
    })?;
    db.cluster().rebalance();
    Ok((n_customers, n_items, n_orders))
}

/// The four INSERT shapes of a Buy Request (the updating part of the mix).
pub const INSERT_CART: &str = "INSERT INTO shopping_cart (sc_id, sc_time) VALUES (<cart>, <now>)";
pub const INSERT_CART_LINE: &str = "INSERT INTO shopping_cart_line (scl_sc_id, scl_i_id, scl_qty) \
     VALUES (<cart>, <item>, <qty>)";
pub const INSERT_ORDER: &str =
    "INSERT INTO orders (o_id, o_c_uname, o_date_time, o_total, o_status) \
     VALUES (<o>, <uname>, <now>, 99.5, 'PENDING')";
pub const INSERT_ORDER_LINE: &str = "INSERT INTO order_line (ol_o_id, ol_id, ol_i_id, ol_qty) \
     VALUES (<o>, <l>, <item>, 1)";
pub const BUY_REQUEST_INSERTS: [&str; 4] = [
    INSERT_CART,
    INSERT_CART_LINE,
    INSERT_ORDER,
    INSERT_ORDER_LINE,
];

/// The nine Table-1 queries.
#[derive(Debug)]
pub struct TpcwQueries {
    pub home_customer: Prepared,
    pub home_promotions: Prepared,
    pub new_products: Prepared,
    pub product_detail: Prepared,
    pub search_by_author: Prepared,
    pub search_by_title: Prepared,
    pub order_display_customer: Prepared,
    pub order_display_last_order: Prepared,
    pub order_display_lines: Prepared,
    pub buy_request_cart: Prepared,
}

/// The Table-1 TPC-W query texts, in the paper's row order. Exposed so
/// service harnesses can register the same queries through an API that
/// takes PIQL text (e.g. `piql-server`'s `prepare`).
pub const TABLE1_SQL: &[(&str, &str)] = &[
    ("Home WI", "SELECT * FROM customer WHERE c_uname = <uname>"),
    (
        "Home WI (promotions)",
        "SELECT i_id, i_title FROM item WHERE i_id IN [1: promo MAX 5]",
    ),
    (
        "New Products WI",
        "SELECT i_id, i_title, a_fname, a_lname FROM item, author \
         WHERE i_a_id = a_id AND i_subject LIKE [1: subject] \
         ORDER BY i_pub_date DESC LIMIT 50",
    ),
    (
        "Product Detail WI",
        "SELECT i.*, a.a_fname, a.a_lname FROM item i JOIN author a \
         WHERE i.i_id = <item> AND a.a_id = i.i_a_id",
    ),
    (
        "Search By Author WI",
        "SELECT i_title, i_id, a_fname, a_lname FROM author a JOIN item i \
         WHERE a.a_lname LIKE [1: name] AND i.i_a_id = a.a_id \
         ORDER BY i_title LIMIT 50",
    ),
    (
        "Search By Title WI",
        "SELECT I_TITLE, I_ID, A_FNAME, A_LNAME FROM ITEM, AUTHOR \
         WHERE I_A_ID = A_ID AND I_TITLE LIKE [1: titleWord] \
         ORDER BY I_TITLE LIMIT 50",
    ),
    (
        "Order Display WI Get Customer",
        "SELECT c.*, a.addr_street, a.addr_city, co.co_name \
         FROM customer c JOIN address a JOIN country co \
         WHERE c.c_uname = <uname> AND a.addr_id = c.c_addr_id \
           AND co.co_id = a.addr_co_id",
    ),
    (
        "Order Display WI Get Last Order",
        "SELECT * FROM orders WHERE o_c_uname = <uname> \
         ORDER BY o_date_time DESC LIMIT 1",
    ),
    (
        "Order Display WI Get OrderLines",
        "SELECT ol.*, i.i_title FROM order_line ol JOIN item i \
         WHERE ol.ol_o_id = <order> AND i.i_id = ol.ol_i_id",
    ),
    (
        "Buy Request WI",
        "SELECT scl.*, i.i_title, i.i_cost FROM shopping_cart_line scl JOIN item i \
         WHERE scl.scl_sc_id = <cart> AND i.i_id = scl.scl_i_id",
    ),
];

fn table1(label: &str) -> &'static str {
    TABLE1_SQL
        .iter()
        .find(|(l, _)| *l == label)
        .map(|(_, sql)| *sql)
        .expect("known Table-1 label")
}

impl TpcwQueries {
    pub fn prepare<S: KvStore>(db: &Database<S>) -> Result<Self, DbError> {
        Ok(TpcwQueries {
            home_customer: db.prepare(table1("Home WI"))?,
            home_promotions: db.prepare(table1("Home WI (promotions)"))?,
            new_products: db.prepare(table1("New Products WI"))?,
            product_detail: db.prepare(table1("Product Detail WI"))?,
            search_by_author: db.prepare(table1("Search By Author WI"))?,
            search_by_title: db.prepare(table1("Search By Title WI"))?,
            order_display_customer: db.prepare(table1("Order Display WI Get Customer"))?,
            order_display_last_order: db.prepare(table1("Order Display WI Get Last Order"))?,
            order_display_lines: db.prepare(table1("Order Display WI Get OrderLines"))?,
            buy_request_cart: db.prepare(table1("Buy Request WI"))?,
        })
    }

    /// (Table-1 label, prepared query) in the paper's row order; the two
    /// Home queries are exposed separately.
    pub fn labeled(&self) -> Vec<(&'static str, &Prepared)> {
        vec![
            ("Home WI", &self.home_customer),
            ("Home WI (promotions)", &self.home_promotions),
            ("New Products WI", &self.new_products),
            ("Product Detail WI", &self.product_detail),
            ("Search By Author WI", &self.search_by_author),
            ("Search By Title WI", &self.search_by_title),
            (
                "Order Display WI Get Customer",
                &self.order_display_customer,
            ),
            (
                "Order Display WI Get Last Order",
                &self.order_display_last_order,
            ),
            ("Order Display WI Get OrderLines", &self.order_display_lines),
            ("Buy Request WI", &self.buy_request_cart),
        ]
    }
}

/// Interaction kinds (metrics labels).
pub const KIND_HOME: usize = 0;
pub const KIND_NEW_PRODUCTS: usize = 1;
pub const KIND_PRODUCT_DETAIL: usize = 2;
pub const KIND_SEARCH_AUTHOR: usize = 3;
pub const KIND_SEARCH_TITLE: usize = 4;
pub const KIND_ORDER_DISPLAY: usize = 5;
pub const KIND_BUY_REQUEST: usize = 6;

/// The TPC-W workload with the (approximated) ordering mix.
pub struct TpcwWorkload {
    pub queries: TpcwQueries,
    pub n_customers: usize,
    pub n_items: usize,
    pub n_orders_initial: usize,
    next_cart_id: AtomicI64,
    next_order_id: AtomicI64,
}

impl TpcwWorkload {
    pub fn new<S: KvStore>(
        db: &Database<S>,
        n_customers: usize,
        n_items: usize,
        n_orders: usize,
    ) -> Result<Self, DbError> {
        Ok(TpcwWorkload {
            queries: TpcwQueries::prepare(db)?,
            n_customers,
            n_items,
            n_orders_initial: n_orders,
            next_cart_id: AtomicI64::new(1),
            next_order_id: AtomicI64::new((n_orders as i64) << 8),
        })
    }

    pub fn random_params(&self, kind: usize, rng: &mut StdRng) -> Params {
        let mut p = Params::new();
        match kind {
            KIND_HOME => {
                p.set(
                    0,
                    Value::Varchar(customer_uname(rng.gen_range(0..self.n_customers))),
                );
            }
            KIND_NEW_PRODUCTS => {
                p.set(
                    0,
                    Value::Varchar(SUBJECTS[rng.gen_range(0..SUBJECTS.len())].to_string()),
                );
            }
            KIND_PRODUCT_DETAIL => {
                p.set(0, Value::Int(rng.gen_range(0..self.n_items) as i32));
            }
            KIND_SEARCH_AUTHOR => {
                p.set(
                    0,
                    Value::Varchar(SURNAMES[rng.gen_range(0..SURNAMES.len())].to_string()),
                );
            }
            KIND_SEARCH_TITLE => {
                p.set(
                    0,
                    Value::Varchar(TITLE_WORDS[rng.gen_range(0..TITLE_WORDS.len())].to_string()),
                );
            }
            _ => {}
        }
        p
    }
}

impl Workload for TpcwWorkload {
    fn kinds(&self) -> Vec<&'static str> {
        vec![
            "Home",
            "New Products",
            "Product Detail",
            "Search by Author",
            "Search by Title",
            "Order Display",
            "Buy Request",
        ]
    }

    fn interaction(
        &self,
        db: &Database,
        session: &mut Session,
        rng: &mut StdRng,
        strategy: ExecStrategy,
    ) -> Result<usize, DbError> {
        // ordering-mix approximation over the nine implemented interactions;
        // Buy Request's weight makes ~28% of interactions updating (§8.1.1:
        // "30% of all requests lead to an update")
        let dice: f64 = rng.gen();
        let q = &self.queries;
        let uname = customer_uname(rng.gen_range(0..self.n_customers));
        let mut p_uname = Params::new();
        p_uname.set(0, Value::Varchar(uname.clone()));
        if dice < 0.14 {
            // Home: customer + 5 promotional items
            db.execute_with(session, &q.home_customer, &p_uname, strategy, None)?;
            let promos: Vec<Value> = (0..5)
                .map(|_| Value::Int(rng.gen_range(0..self.n_items) as i32))
                .collect();
            let mut p = Params::new();
            p.set(0, promos);
            db.execute_with(session, &q.home_promotions, &p, strategy, None)?;
            Ok(KIND_HOME)
        } else if dice < 0.25 {
            let p = self.random_params(KIND_NEW_PRODUCTS, rng);
            db.execute_with(session, &q.new_products, &p, strategy, None)?;
            Ok(KIND_NEW_PRODUCTS)
        } else if dice < 0.41 {
            let p = self.random_params(KIND_PRODUCT_DETAIL, rng);
            db.execute_with(session, &q.product_detail, &p, strategy, None)?;
            Ok(KIND_PRODUCT_DETAIL)
        } else if dice < 0.50 {
            let p = self.random_params(KIND_SEARCH_AUTHOR, rng);
            db.execute_with(session, &q.search_by_author, &p, strategy, None)?;
            Ok(KIND_SEARCH_AUTHOR)
        } else if dice < 0.59 {
            let p = self.random_params(KIND_SEARCH_TITLE, rng);
            db.execute_with(session, &q.search_by_title, &p, strategy, None)?;
            Ok(KIND_SEARCH_TITLE)
        } else if dice < 0.72 {
            // Order Display: customer, last order, its lines
            db.execute_with(session, &q.order_display_customer, &p_uname, strategy, None)?;
            let r = db.execute_with(
                session,
                &q.order_display_last_order,
                &p_uname,
                strategy,
                None,
            )?;
            if let Some(order_id) = r.rows.first().and_then(|order| order.get(0)) {
                let mut p = Params::new();
                p.set(0, order_id.to_value());
                db.execute_with(session, &q.order_display_lines, &p, strategy, None)?;
            }
            Ok(KIND_ORDER_DISPLAY)
        } else {
            // Buy Request: create a cart, add items, read it back, place
            // the order (the updating portion of the mix). Ids are spread
            // pseudo-randomly; retry on the (rare) collision.
            let mut cart = 0i32;
            for attempt in 0..8 {
                cart = spread_id(self.next_cart_id.fetch_add(1, Ordering::Relaxed));
                let mut p = Params::new();
                p.set(0, Value::Int(cart));
                p.set(1, Value::Timestamp(session.now as i64));
                match db.execute_dml(session, INSERT_CART, &p) {
                    Ok(()) => break,
                    Err(DbError::Write(piql_engine::WriteError::DuplicateKey { .. }))
                        if attempt < 7 => {}
                    Err(e) => return Err(e),
                }
            }
            let n_lines = rng.gen_range(1..4usize);
            let mut line_items = Vec::new();
            for _ in 0..n_lines {
                let item = rng.gen_range(0..self.n_items) as i32;
                if line_items.contains(&item) {
                    continue;
                }
                line_items.push(item);
                let mut p = Params::new();
                p.set(0, Value::Int(cart));
                p.set(1, Value::Int(item));
                p.set(2, Value::Int(rng.gen_range(1..4)));
                db.execute_dml(session, INSERT_CART_LINE, &p)?;
            }
            let mut p = Params::new();
            p.set(0, Value::Int(cart));
            db.execute_with(session, &q.buy_request_cart, &p, strategy, None)?;
            // place the order
            let mut order = 0i32;
            for attempt in 0..8 {
                order = spread_id(self.next_order_id.fetch_add(1, Ordering::Relaxed));
                let mut p = Params::new();
                p.set(0, Value::Int(order));
                p.set(1, Value::Varchar(uname.clone()));
                p.set(2, Value::Timestamp(session.now as i64));
                match db.execute_dml(session, INSERT_ORDER, &p) {
                    Ok(()) => break,
                    Err(DbError::Write(piql_engine::WriteError::DuplicateKey { .. }))
                        if attempt < 7 => {}
                    Err(e) => return Err(e),
                }
            }
            for (l, item) in line_items.iter().enumerate() {
                let mut p = Params::new();
                p.set(0, Value::Int(order));
                p.set(1, Value::Int(l as i32));
                p.set(2, Value::Int(*item));
                db.execute_dml(session, INSERT_ORDER_LINE, &p)?;
            }
            Ok(KIND_BUY_REQUEST)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::{run_closed_loop, DriverConfig};
    use piql_kv::{ClusterConfig, SimCluster};
    use std::sync::Arc;

    fn small_config() -> TpcwConfig {
        TpcwConfig {
            items: 400,
            customers_per_node: 40,
            ..Default::default()
        }
    }

    #[test]
    fn all_nine_queries_compile_scale_independent() {
        let cluster = Arc::new(SimCluster::new(ClusterConfig::instant(3)));
        let db = Database::new(cluster);
        let (c, i, o) = setup(&db, &small_config(), 3).unwrap();
        assert_eq!((c, i, o), (120, 400, 120));
        let w = TpcwWorkload::new(&db, c, i, o).unwrap();
        for (label, prepared) in w.queries.labeled() {
            assert!(
                prepared.compiled.bounds.guaranteed,
                "{label} must be scale-independent"
            );
            assert!(
                prepared.compiled.class.is_scale_independent(),
                "{label}: {:?}",
                prepared.compiled.class
            );
        }
    }

    #[test]
    fn expected_indexes_are_derived() {
        let cluster = Arc::new(SimCluster::new(ClusterConfig::instant(2)));
        let db = Database::new(cluster);
        setup(&db, &small_config(), 2).unwrap();
        TpcwQueries::prepare(&db).unwrap();
        let catalog = db.catalog();
        let index_names: Vec<String> = catalog.indexes().map(|i| i.name.clone()).collect();
        // §8.2: the compiler creates 5 indexes beyond primary keys; ours:
        // items by (token(subject), pub_date), items by (token(title), title),
        // items by (a_id, title), orders by (c_uname, date), and the author
        // token enforcement index
        let expect_fragments = [
            "idx_item_tok_i_subject",
            "idx_item_tok_i_title",
            "idx_item_i_a_id_i_title",
            "idx_orders_o_c_uname",
            "idx_author_tok_a_lname",
        ];
        for frag in expect_fragments {
            assert!(
                index_names.iter().any(|n| n.starts_with(frag)),
                "missing index {frag}; have {index_names:?}"
            );
        }
    }

    #[test]
    fn mix_runs_and_updates_flow() {
        let cluster = Arc::new(SimCluster::new(
            ClusterConfig::default().with_nodes(4).with_seed(21),
        ));
        let db = Database::new(cluster);
        let (c, i, o) = setup(&db, &small_config(), 4).unwrap();
        let w = TpcwWorkload::new(&db, c, i, o).unwrap();
        let cfg = DriverConfig {
            sessions: 6,
            duration_us: 6 * piql_kv::SECONDS,
            warmup_us: piql_kv::SECONDS,
            ..Default::default()
        };
        let m = run_closed_loop(&db, &w, &cfg).unwrap();
        assert!(m.count() > 30, "completed {}", m.count());
        // buy requests happened and created orders
        let buys = m
            .samples
            .iter()
            .filter(|s| s.kind == KIND_BUY_REQUEST)
            .count();
        assert!(buys > 0);
        assert!(w.next_order_id.load(Ordering::Relaxed) > o as i64);
    }
}
