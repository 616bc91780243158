//! End-to-end compiler tests on the paper's own queries.

use piql_core::catalog::{CardinalityConstraint, Catalog, Statistics, TableDef, TableStats};
use piql_core::opt::{Optimizer, QueryClass, Suggestion};
use piql_core::parser::parse_select;
use piql_core::plan::physical::{PhysicalPlan, ScanLimit};
use piql_core::value::DataType;

/// The SCADr schema exactly as §8.1.2 describes it, with the §8.2
/// cardinality limit of 10 subscriptions per user changed to 100 (the §4.2
/// example) — tests that depend on the number use the constant below.
const MAX_SUBSCRIPTIONS: u64 = 100;

fn scadr_catalog() -> Catalog {
    let mut cat = Catalog::new();
    cat.create_table(
        TableDef::builder("users")
            .column("username", DataType::Varchar(32))
            .column("home_town", DataType::Varchar(64))
            .primary_key(&["username"])
            .build(),
    )
    .unwrap();
    cat.create_table(
        TableDef::builder("subscriptions")
            .column("owner", DataType::Varchar(32))
            .column("target", DataType::Varchar(32))
            .column("approved", DataType::Bool)
            .primary_key(&["owner", "target"])
            .foreign_key(&["target"], "users")
            .foreign_key(&["owner"], "users")
            .cardinality_limit(MAX_SUBSCRIPTIONS, &["owner"])
            .build(),
    )
    .unwrap();
    cat.create_table(
        TableDef::builder("thoughts")
            .column("owner", DataType::Varchar(32))
            .column("timestamp", DataType::Timestamp)
            .column("text", DataType::Varchar(140))
            .primary_key(&["owner", "timestamp"])
            .foreign_key(&["owner"], "users")
            .build(),
    )
    .unwrap();
    cat
}

const THOUGHTSTREAM: &str = "SELECT thoughts.* \
    FROM subscriptions s JOIN thoughts \
    WHERE thoughts.owner = s.target AND s.owner = <uname> AND s.approved = true \
    ORDER BY thoughts.timestamp DESC LIMIT 10";

#[test]
fn thoughtstream_compiles_to_figure_3d() {
    let cat = scadr_catalog();
    let opt = Optimizer::scale_independent();
    let q = parse_select(THOUGHTSTREAM).unwrap();
    let c = opt.compile(&cat, &q).unwrap();

    // Physical shape: Project(SortedIndexJoin(LocalSelection(IndexScan)))
    let explain = c.explain();
    println!("{explain}");
    let PhysicalPlan::LocalProject { child, .. } = &c.physical else {
        panic!("expected projection at top, got:\n{explain}");
    };
    let PhysicalPlan::SortedIndexJoin { child, spec, .. } = child.as_ref() else {
        panic!("expected SortedIndexJoin, got:\n{explain}");
    };
    assert_eq!(spec.per_key, 10, "limit hint 10 per subscription");
    assert_eq!(spec.emit_limit, Some(10));
    assert!(spec.index.is_primary(), "thoughts pk serves the join");
    assert!(
        spec.reverse,
        "timestamp DESC over ascending pk = reverse scan"
    );
    let PhysicalPlan::LocalSelection {
        child, predicates, ..
    } = child.as_ref()
    else {
        panic!("expected LocalSelection(approved), got:\n{explain}");
    };
    assert_eq!(predicates.len(), 1, "only the approved filter is local");
    let PhysicalPlan::IndexScan { spec, .. } = child.as_ref() else {
        panic!("expected IndexScan at the bottom, got:\n{explain}");
    };
    match &spec.limit {
        ScanLimit::Bounded { count, provenance } => {
            assert_eq!(*count, MAX_SUBSCRIPTIONS);
            assert_eq!(provenance.kind(), "cardinality", "{provenance}");
            assert!(provenance.is_cardinality_bound());
        }
        other => panic!("unexpected limit {other:?}"),
    }
    assert!(spec.index.is_primary(), "subscriptions pk serves owner=");

    // Bounds: 1 range request + 100 sorted probes (+0 derefs: both primary)
    assert_eq!(c.bounds.requests, 1 + MAX_SUBSCRIPTIONS);
    assert!(c.bounds.guaranteed);
    assert_eq!(c.class, QueryClass::Bounded);
    assert!(
        c.required_indexes.is_empty(),
        "no extra index needed (Table 1)"
    );
    assert_eq!(c.params.len(), 1);
}

#[test]
fn thoughtstream_without_cardinality_is_rejected_with_insight() {
    let mut cat = Catalog::new();
    cat.create_table(
        TableDef::builder("users")
            .column("username", DataType::Varchar(32))
            .primary_key(&["username"])
            .build(),
    )
    .unwrap();
    cat.create_table(
        TableDef::builder("subscriptions")
            .column("owner", DataType::Varchar(32))
            .column("target", DataType::Varchar(32))
            .column("approved", DataType::Bool)
            .primary_key(&["owner", "target"])
            .build(), // no CARDINALITY LIMIT
    )
    .unwrap();
    cat.create_table(
        TableDef::builder("thoughts")
            .column("owner", DataType::Varchar(32))
            .column("timestamp", DataType::Timestamp)
            .column("text", DataType::Varchar(140))
            .primary_key(&["owner", "timestamp"])
            .build(),
    )
    .unwrap();
    let opt = Optimizer::scale_independent();
    let q = parse_select(THOUGHTSTREAM).unwrap();
    let err = opt.compile(&cat, &q).unwrap_err();
    let report = err.insight().expect("insight report");
    assert_eq!(report.relation.as_deref(), Some("s"));
    assert!(
        report.suggestions.iter().any(|s| matches!(
            s,
            Suggestion::AddCardinalityLimit { table, columns }
                if table == "subscriptions" && columns.contains(&"owner".to_string())
        )),
        "{report}"
    );
}

#[test]
fn recent_thoughts_is_class_i_primary_only() {
    let cat = scadr_catalog();
    let opt = Optimizer::scale_independent();
    let q = parse_select(
        "SELECT * FROM thoughts WHERE owner = <uname> \
         ORDER BY timestamp DESC PAGINATE 10",
    )
    .unwrap();
    let c = opt.compile(&cat, &q).unwrap();
    assert_eq!(c.class, QueryClass::Constant);
    assert_eq!(c.page_size, Some(10));
    assert_eq!(c.bounds.requests, 1);
    assert!(c.required_indexes.is_empty());
}

#[test]
fn pk_lookup_has_bound_one() {
    let cat = scadr_catalog();
    let opt = Optimizer::scale_independent();
    let q = parse_select("SELECT * FROM users WHERE username = <u>").unwrap();
    let c = opt.compile(&cat, &q).unwrap();
    assert_eq!(c.class, QueryClass::Constant);
    assert_eq!(c.bounds.requests, 1);
    assert_eq!(c.bounds.tuples, 1);
}

#[test]
fn users_followed_uses_fk_join() {
    let cat = scadr_catalog();
    let opt = Optimizer::scale_independent();
    let q = parse_select(
        "SELECT u.* FROM subscriptions s JOIN users u \
         WHERE u.username = s.target AND s.owner = <uname>",
    )
    .unwrap();
    let c = opt.compile(&cat, &q).unwrap();
    let explain = c.explain();
    let PhysicalPlan::LocalProject { child, .. } = &c.physical else {
        panic!("{explain}");
    };
    assert!(
        matches!(child.as_ref(), PhysicalPlan::IndexFKJoin { .. }),
        "unique-pk join maps to IndexFKJoin:\n{explain}"
    );
    // 1 scan request + up to 100 parallel gets
    assert_eq!(c.bounds.requests, 1 + MAX_SUBSCRIPTIONS);
    assert_eq!(c.bounds.rounds, 2);
    assert_eq!(c.class, QueryClass::Bounded);
}

#[test]
fn subscriber_intersection_bounded_vs_cost_based() {
    // §8.3's comparison query.
    let cat = scadr_catalog();
    // projecting only the key columns makes the by-target index covering,
    // matching the paper's description of the unbounded plan (one RPC)
    let q = parse_select(
        "SELECT owner, target FROM subscriptions \
         WHERE target = <target_user> AND owner IN [2: friends MAX 50]",
    )
    .unwrap();

    // SI mode: bounded random-lookup plan (ParamSource + IndexFKJoin)
    let opt = Optimizer::scale_independent();
    let c = opt.compile(&cat, &q).unwrap();
    let explain = c.explain();
    assert!(c.bounds.guaranteed);
    assert_eq!(c.bounds.requests, 50, "50 random reads max:\n{explain}");
    assert_eq!(
        c.class,
        QueryClass::Bounded,
        "the only bound is [friends MAX 50]:\n{explain}"
    );
    let mut saw_fk = false;
    let mut node = &c.physical;
    loop {
        if let PhysicalPlan::IndexFKJoin { child, .. } = node {
            saw_fk = true;
            assert!(matches!(child.as_ref(), PhysicalPlan::ParamSource { .. }));
            break;
        }
        match node.child() {
            Some(c) => node = c,
            None => break,
        }
    }
    assert!(saw_fk, "bounded plan does pk lookups:\n{explain}");

    // Cost-based mode with Twitter-2009 stats (avg 126 followers): prefers
    // the unbounded scan (1-2 expected requests beat 50 lookups).
    let mut stats = Statistics::new();
    let subs = cat.table("subscriptions").unwrap().id;
    let mut ts = TableStats::with_rows(1_000_000);
    ts.set_avg_group_size("target", 126.0);
    stats.set_table(subs, ts);
    let opt = Optimizer::cost_based(stats);
    let c = opt.compile(&cat, &q).unwrap();
    assert!(!c.bounds.guaranteed, "cost-based plan is unbounded");
    let remotes = c.physical.remote_ops();
    assert_eq!(remotes.len(), 1);
    match remotes[0] {
        PhysicalPlan::IndexScan { spec, .. } => {
            assert!(matches!(spec.limit, ScanLimit::Unbounded { estimate: 126 }));
            assert!(
                !spec.index.is_primary(),
                "needs subscriptions-by-target index"
            );
        }
        other => panic!("expected unbounded IndexScan, got {other:?}"),
    }
}

/// TPC-W's promotions read: its only bound is the parameter maximum, so it
/// is Class II, as the `[promo MAX 5]` node of its derivation says.
#[test]
fn a_parameter_maximum_makes_a_lookup_class_ii() {
    let mut cat = Catalog::new();
    cat.create_table(
        TableDef::builder("item")
            .column("i_id", DataType::Int)
            .column("i_title", DataType::Varchar(60))
            .primary_key(&["i_id"])
            .build(),
    )
    .unwrap();
    let q = parse_select("SELECT i_id, i_title FROM item WHERE i_id IN [1: promo MAX 5]").unwrap();
    let c = Optimizer::scale_independent().compile(&cat, &q).unwrap();
    assert!(
        matches!(c.physical.child(), Some(PhysicalPlan::IndexFKJoin { .. })),
        "{}",
        c.explain()
    );
    assert_eq!(c.bounds.requests, 5);
    assert_eq!(c.class, QueryClass::Bounded, "{}", c.explain());
    assert!(c.class.derivation().contains("parameter maximum"));
}

/// `docs(d_owner, d_id, d_text)` with a `TOKEN(d_text)` limit of 20.
fn docs_catalog() -> Catalog {
    let mut cat = scadr_catalog();
    cat.create_table(
        TableDef::builder("docs")
            .column("d_owner", DataType::Varchar(32))
            .column("d_id", DataType::Int)
            .column("d_text", DataType::Varchar(140))
            .primary_key(&["d_owner", "d_id"])
            .cardinality_limit(20, &["token:d_text"])
            .build(),
    )
    .unwrap();
    cat
}

#[test]
fn a_token_limit_bounds_a_joined_relation_too() {
    let cat = docs_catalog();
    let opt = Optimizer::scale_independent();
    let alone = parse_select("SELECT * FROM docs d WHERE d.d_text LIKE 'word'").unwrap();
    let alone = opt.compile(&cat, &alone).unwrap();
    assert!(
        alone.explain().contains("limitHint=20"),
        "{}",
        alone.explain()
    );

    let joined = parse_select(
        "SELECT * FROM users u JOIN docs d \
         WHERE d.d_owner = u.username AND u.username = <u> AND d.d_text LIKE 'word'",
    )
    .unwrap();
    let c = opt
        .compile(&cat, &joined)
        .unwrap_or_else(|e| panic!("the token limit bounds each probe: {e}"));
    let explain = c.explain();
    assert!(
        explain.contains("perKey=20 [CARDINALITY LIMIT 20 (TOKEN(d_text))]"),
        "{explain}"
    );
    assert_eq!(c.class, QueryClass::Bounded);
}

/// Users, subscriptions and thoughts with no `CARDINALITY LIMIT`, plus
/// `limit` (table, columns) when given.
fn unconstrained_catalog(limit: Option<(&str, &[String])>) -> Catalog {
    let mut cat = Catalog::new();
    for mut table in [
        TableDef::builder("users")
            .column("username", DataType::Varchar(32))
            .primary_key(&["username"])
            .build(),
        TableDef::builder("subscriptions")
            .column("owner", DataType::Varchar(32))
            .column("target", DataType::Varchar(32))
            .column("approved", DataType::Bool)
            .primary_key(&["owner", "target"])
            .build(),
        TableDef::builder("thoughts")
            .column("owner", DataType::Varchar(32))
            .column("timestamp", DataType::Timestamp)
            .primary_key(&["owner", "timestamp"])
            .build(),
    ] {
        if let Some((_, columns)) = limit.filter(|(name, _)| *name == table.name) {
            table.cardinality_constraints.push(CardinalityConstraint {
                limit: 7,
                columns: columns.to_vec(),
            });
        }
        cat.create_table(table).unwrap();
    }
    cat
}

#[test]
fn declaring_the_suggested_join_limit_makes_the_join_compile() {
    let opt = Optimizer::scale_independent();
    for sql in [
        "SELECT * FROM users u JOIN subscriptions s WHERE s.owner = u.username AND u.username = <u>",
        "SELECT * FROM users u JOIN thoughts t WHERE t.owner = u.username AND u.username = <u>",
        "SELECT * FROM users u JOIN subscriptions s \
         WHERE s.target = u.username AND s.approved = true AND u.username = <u>",
    ] {
        let q = parse_select(sql).unwrap();
        let err = opt.compile(&unconstrained_catalog(None), &q).unwrap_err();
        let report = err.insight().expect("an insight report");
        assert!(report.problem.contains("per join key"), "{sql}: {report}");
        let (table, columns) = report
            .suggestions
            .iter()
            .find_map(|s| match s {
                Suggestion::AddCardinalityLimit { table, columns } => Some((table, columns)),
                _ => None,
            })
            .unwrap_or_else(|| panic!("{sql}: no limit suggested: {report}"));
        let cat = unconstrained_catalog(Some((table, columns)));
        let c = opt.compile(&cat, &q).unwrap_or_else(|e| {
            panic!("{sql}: still rejected after declaring ({columns:?}) on {table}: {e}")
        });
        assert_eq!(c.class, QueryClass::Bounded, "{sql}");
    }
}

#[test]
fn in_lists_never_panic_and_their_order_does_not_matter() {
    let mut cat = Catalog::new();
    cat.create_table(
        TableDef::builder("users")
            .column("username", DataType::Varchar(32))
            .column("home_town", DataType::Varchar(64))
            .primary_key(&["username"])
            .cardinality_limit(10, &["home_town"])
            .build(),
    )
    .unwrap();
    let opt = Optimizer::scale_independent();
    let compile = |sql: &str| opt.compile(&cat, &parse_select(sql).unwrap());
    let one =
        compile("SELECT * FROM users WHERE username IN [1: a MAX 5] AND home_town IN [2: b MAX 3]")
            .unwrap();
    let other =
        compile("SELECT * FROM users WHERE home_town IN [2: b MAX 3] AND username IN [1: a MAX 5]")
            .unwrap();
    assert_eq!(one.physical, other.physical, "{}", other.explain());
    let explain = one.explain();
    assert!(explain.contains("ParamSource([1: a MAX 5]"), "{explain}");
    assert!(
        explain.contains("LocalSelection(users.home_town IN"),
        "{explain}"
    );
    assert_eq!(one.bounds.requests, 5);

    // two lists on one column, and lists on two joined relations: each is a
    // typed answer
    compile("SELECT * FROM users WHERE username IN [1: a MAX 5] AND username IN [2: b MAX 3]")
        .unwrap();
    let cat = scadr_catalog();
    let joined = parse_select(
        "SELECT * FROM subscriptions s JOIN users u \
         WHERE u.username = s.target AND s.owner IN [1: a MAX 5] AND u.username IN [2: b MAX 3]",
    )
    .unwrap();
    // the key list is rewritten (one row per value beats 100 per owner), so
    // `s` is probed by `target` alone, which nothing bounds
    let err = opt.compile(&cat, &joined).unwrap_err();
    let report = err.insight().expect("an insight report");
    assert_eq!(report.relation.as_deref(), Some("s"), "{report}");
    assert!(report.problem.contains("per join key"), "{report}");
}

/// A list on a relation whose equalities already pin its primary key stays
/// a local filter: the point read is one request, and the list cannot be
/// dropped by a key lookup that never reads `home_town`.
#[test]
fn an_in_list_on_a_pinned_row_stays_a_filter() {
    let cat = scadr_catalog();
    let q = parse_select("SELECT * FROM users WHERE username = <u> AND home_town IN [2: t MAX 3]")
        .unwrap();
    let c = Optimizer::scale_independent().compile(&cat, &q).unwrap();
    let explain = c.explain();
    let Some(PhysicalPlan::LocalSelection { child, .. }) = c.physical.child() else {
        panic!("expected a local filter under the projection:\n{explain}");
    };
    assert!(
        matches!(child.as_ref(), PhysicalPlan::IndexScan { .. }),
        "{explain}"
    );
    assert!(
        explain.contains("LocalSelection(users.home_town IN"),
        "{explain}"
    );
    assert_eq!(c.bounds.requests, 1, "{explain}");
    assert_eq!(c.class, QueryClass::Constant, "{explain}");
}

/// The operators from the root down, each node's child next.
fn spine(plan: &PhysicalPlan) -> Vec<&PhysicalPlan> {
    std::iter::successors(Some(plan), |p| p.child()).collect()
}

/// A join's key reads some of its edges and equalities; every one it does
/// not read is checked on the joined row.
#[test]
fn a_join_checks_every_edge_and_equality_its_key_does_not_read() {
    let cat = scadr_catalog();
    let opt = Optimizer::scale_independent();
    for sql in [
        // FK join on username; home_town is no key column
        "SELECT * FROM subscriptions s JOIN users u \
         WHERE s.owner = <o> AND u.username = s.target AND u.home_town = s.owner",
        // sorted join keyed by the edge on owner; 'bob' is checked locally
        "SELECT * FROM users u JOIN subscriptions s \
         WHERE u.username = <u> AND s.owner = u.username AND s.owner = 'bob'",
    ] {
        let c = opt.compile(&cat, &parse_select(sql).unwrap()).unwrap();
        let explain = c.explain();
        let Some(PhysicalPlan::LocalSelection { child, .. }) = c.physical.child() else {
            panic!("{sql}: expected a local filter over the join:\n{explain}");
        };
        assert!(
            matches!(
                child.as_ref(),
                PhysicalPlan::IndexFKJoin { .. } | PhysicalPlan::SortedIndexJoin { .. }
            ),
            "{sql}:\n{explain}"
        );
    }
}

/// A standard stop lands on a remote operator only when every join above
/// it keeps the row count. Otherwise it runs locally, on top.
#[test]
fn a_limit_is_folded_only_below_count_preserving_joins() {
    let mut cat = Catalog::new();
    for table in [
        TableDef::builder("a")
            .column("a_id", DataType::Int)
            .column("a_grp", DataType::Int)
            .column("a_b", DataType::Int)
            .primary_key(&["a_id"])
            .cardinality_limit(50, &["a_grp"])
            .build(),
        // b and c are one entity split in two: each points at the other
        TableDef::builder("b")
            .column("b_id", DataType::Int)
            .column("b_c", DataType::Int)
            .primary_key(&["b_id"])
            .foreign_key(&["b_c"], "c")
            .build(),
        TableDef::builder("c")
            .column("c_id", DataType::Int)
            .primary_key(&["c_id"])
            .foreign_key(&["c_id"], "b")
            .build(),
    ] {
        cat.create_table(table).unwrap();
    }
    let opt = Optimizer::scale_independent();
    // `a` declares no FK onto b, so an `a_b` may dangle and the join to b
    // drop the row; only c, placed after b, declares one onto b
    let q = parse_select(
        "SELECT * FROM a JOIN b JOIN c \
         WHERE a.a_grp = <g> AND b.b_id = a.a_b AND c.c_id = b.b_c LIMIT 5",
    )
    .unwrap();
    let c = opt.compile(&cat, &q).unwrap();
    let explain = c.explain();
    let ops = spine(&c.physical);
    let Some(PhysicalPlan::IndexScan { spec, .. }) = ops.last() else {
        panic!("expected a scan of a at the bottom:\n{explain}");
    };
    assert_eq!(spec.limit.count_or_estimate(), 50, "{explain}");
    assert!(
        matches!(ops[1], PhysicalPlan::LocalStop { count: 5, .. }),
        "{explain}"
    );

    // an operator the fold leg cannot absorb the stop into: a filtered
    // scan, and an FK join from a parameter list
    let cat = scadr_catalog();
    for sql in [
        "SELECT * FROM subscriptions WHERE owner = <o> AND target <> 'bob' LIMIT 3",
        "SELECT * FROM users WHERE username IN [1: u MAX 5] LIMIT 3",
    ] {
        let c = opt.compile(&cat, &parse_select(sql).unwrap()).unwrap();
        let explain = c.explain();
        assert!(
            matches!(
                c.physical.child(),
                Some(PhysicalPlan::LocalStop { count: 3, .. })
            ),
            "{sql}:\n{explain}"
        );
        assert_eq!(c.bounds.tuples, 3, "{sql}:\n{explain}");
    }
}

#[test]
fn tpcw_search_by_title_selects_token_index() {
    // §5.3's example: the derived index must be
    // Items(TOKEN(I_TITLE), I_TITLE, I_ID).
    let mut cat = Catalog::new();
    cat.create_table(
        TableDef::builder("author")
            .column("a_id", DataType::Int)
            .column("a_fname", DataType::Varchar(20))
            .column("a_lname", DataType::Varchar(20))
            .primary_key(&["a_id"])
            .build(),
    )
    .unwrap();
    cat.create_table(
        TableDef::builder("item")
            .column("i_id", DataType::Int)
            .column("i_title", DataType::Varchar(60))
            .column("i_a_id", DataType::Int)
            .primary_key(&["i_id"])
            .foreign_key(&["i_a_id"], "author")
            .build(),
    )
    .unwrap();
    let opt = Optimizer::scale_independent();
    let q = parse_select(
        "SELECT i_title, i_id, a_fname, a_lname FROM item, author \
         WHERE i_a_id = a_id AND i_title LIKE [1: titleWord] \
         ORDER BY i_title LIMIT 50",
    )
    .unwrap();
    let c = opt.compile(&cat, &q).unwrap();
    let explain = c.explain();
    assert_eq!(c.required_indexes.len(), 1, "{explain}");
    let idx = &c.required_indexes[0];
    assert!(idx.key[0].kind.is_token());
    assert_eq!(idx.key[0].kind.column_name(), "i_title");
    assert_eq!(idx.key[1].kind.column_name(), "i_title");
    // pk i_id is the implicit suffix
    let item = cat.table("item").unwrap();
    let full = idx.full_key_parts(item);
    assert_eq!(full.last().unwrap().kind.column_name(), "i_id");
    assert!(
        c.notes.iter().any(|n| n.contains("tokenized")),
        "{:?}",
        c.notes
    );

    // scan(item token idx) folded stop 50, then FK join to author
    let remotes = c.physical.remote_ops();
    assert_eq!(remotes.len(), 2, "{explain}");
    match remotes[0] {
        PhysicalPlan::IndexScan { spec, .. } => {
            assert!(matches!(&spec.limit, ScanLimit::Bounded { count: 50, .. }));
            assert!(spec.deref, "title index does not cover i_a_id");
        }
        other => panic!("{other:?}"),
    }
    assert!(matches!(remotes[1], PhysicalPlan::IndexFKJoin { .. }));
    // 1 range + 50 derefs + 50 author gets
    assert_eq!(c.bounds.requests, 101);
    assert_eq!(c.class, QueryClass::Constant);
}

#[test]
fn unbounded_scan_suggests_pagination() {
    let cat = scadr_catalog();
    let opt = Optimizer::scale_independent();
    let q = parse_select("SELECT * FROM users").unwrap();
    let err = opt.compile(&cat, &q).unwrap_err();
    let report = err.insight().unwrap();
    assert!(report.suggestions.contains(&Suggestion::AddLimitOrPaginate));
    assert!(report.suggestions.contains(&Suggestion::Precompute));
}

#[test]
fn class_iii_and_iv_detected_by_cost_based_analysis() {
    let cat = scadr_catalog();
    // Class III: single unbounded scan
    let q3 = parse_select("SELECT * FROM thoughts WHERE text = <x>").unwrap();
    let opt = Optimizer::cost_based(Statistics::new());
    let c3 = opt.compile(&cat, &q3).unwrap();
    assert_eq!(c3.class, QueryClass::Linear);
    // Class IV: join with unbounded fan-out over an unbounded scan
    let q4 = parse_select("SELECT * FROM thoughts t JOIN subscriptions s WHERE s.target = t.owner")
        .unwrap();
    let c4 = opt.compile(&cat, &q4).unwrap();
    assert_eq!(c4.class, QueryClass::SuperLinear);
}

#[test]
fn range_scan_with_limit_uses_primary_order() {
    let cat = scadr_catalog();
    let opt = Optimizer::scale_independent();
    let q = parse_select(
        "SELECT * FROM thoughts WHERE owner = <u> AND timestamp > <since> \
         ORDER BY timestamp ASC LIMIT 25",
    )
    .unwrap();
    let c = opt.compile(&cat, &q).unwrap();
    let remotes = c.physical.remote_ops();
    match remotes[0] {
        PhysicalPlan::IndexScan { spec, .. } => {
            assert!(spec.range.is_some());
            assert!(!spec.reverse);
            assert!(matches!(&spec.limit, ScanLimit::Bounded { count: 25, .. }));
        }
        other => panic!("{other:?}"),
    }
    assert_eq!(c.bounds.requests, 1);
}

#[test]
fn explain_renders_all_three_stages() {
    let cat = scadr_catalog();
    let opt = Optimizer::scale_independent();
    let q = parse_select(THOUGHTSTREAM).unwrap();
    let c = opt.compile(&cat, &q).unwrap();
    let text = c.explain();
    assert!(text.contains("-- logical plan (naive)"));
    assert!(text.contains("DataStop"));
    assert!(text.contains("SortedIndexJoin"));
    assert!(text.contains("CARDINALITY LIMIT 100 (owner)"));
}

#[test]
fn bounds_never_decrease_as_the_limit_grows() {
    // Every OpBounds sum and product saturates: a larger LIMIT can only
    // raise (or hold) each operator's bound and the whole plan's, up to
    // and including the largest LIMIT the parser accepts. An unchecked
    // `count * row_bytes` used to panic in debug builds and wrap to a
    // small, false bound in release.
    let cat = scadr_catalog();
    let opt = Optimizer::scale_independent();
    let shapes = [
        // primary-key range scan
        "SELECT * FROM thoughts WHERE owner = <u> ORDER BY timestamp DESC LIMIT {}",
        // secondary (derived) index scan with dereference
        "SELECT * FROM users WHERE home_town = <t> LIMIT {}",
        // sorted join under a cardinality-bounded scan
        "SELECT thoughts.* FROM subscriptions s JOIN thoughts \
         WHERE thoughts.owner = s.target AND s.owner = <u> \
         ORDER BY thoughts.timestamp DESC LIMIT {}",
        // FK join over a limited scan
        "SELECT * FROM thoughts t JOIN users u \
         WHERE t.owner = u.username AND t.owner = <u> LIMIT {}",
    ];
    let limits = [1, 10, 50, 51, 501, 1_000_000, 1 << 32, i64::MAX as u64];
    for shape in shapes {
        let mut previous: Option<(Vec<[u64; 4]>, [u64; 4])> = None;
        for limit in limits {
            let sql = shape.replace("{}", &limit.to_string());
            let c = opt
                .compile(&cat, &parse_select(&sql).unwrap())
                .unwrap_or_else(|e| panic!("{sql}: {e}"));
            let mut ops = Vec::new();
            let mut node = Some(&c.physical);
            while let Some(p) = node {
                let b = p.bounds();
                ops.push([b.requests, b.rounds, b.tuples, b.bytes]);
                node = p.child();
            }
            let total = [
                c.bounds.requests,
                c.bounds.rounds,
                c.bounds.tuples,
                c.bounds.bytes,
            ];
            if let Some((prev_ops, prev_total)) = &previous {
                assert_eq!(prev_ops.len(), ops.len(), "plan shape changed: {sql}");
                for (before, after) in prev_ops.iter().zip(&ops) {
                    for (b, a) in before.iter().zip(after) {
                        assert!(a >= b, "a bound fell from {b} to {a} at {sql}");
                    }
                }
                for (b, a) in prev_total.iter().zip(&total) {
                    assert!(a >= b, "a plan bound fell from {b} to {a} at {sql}");
                }
            }
            previous = Some((ops, total));
        }
    }
}
