//! The lint gate: `cargo test` fails if any workspace source violates the
//! concurrency lint, so the rules hold without anyone remembering to run
//! the binary. Plus unit coverage for each rule and the escape hatch.

use std::path::{Path, PathBuf};

use piql_analysis::lint::{
    lint_file, lint_orphan_fns, lint_orphan_ranks, lint_twins, lint_workspace, Finding, TWIN_WINDOW,
};

#[test]
fn workspace_is_lint_clean() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..");
    let report = lint_workspace(&root).expect("workspace sources readable");
    assert!(
        report.files_scanned > 20,
        "scan looks incomplete: {report:?}"
    );
    assert!(
        report.findings.is_empty(),
        "lint violations:\n{}",
        report
            .findings
            .iter()
            .map(|f| format!("  {f}"))
            .collect::<Vec<_>>()
            .join("\n")
    );
}

fn run(rel: &str, text: &str) -> Vec<Finding> {
    let mut out = Vec::new();
    lint_file(Path::new(rel), text, &mut out);
    out
}

#[test]
fn raw_lock_constructions_are_flagged() {
    let stdsync = ["use std::", "sync::Mutex;"].concat();
    let plot = ["use parking", "_lot::RwLock;"].concat();
    let qualified = ["let m = std::", "sync::Condvar::new();"].concat();
    for line in [stdsync, plot, qualified] {
        let found = run("crates/kv/src/example.rs", &line);
        assert_eq!(found.len(), 1, "line should be flagged: {line}");
        assert_eq!(found[0].rule, "raw-lock");
        assert_eq!(found[0].line, 1);
    }
    // Arc and atomics from std::sync are fine, as are the ordered wrappers.
    let arc = ["use std::", "sync::Arc;"].concat();
    assert!(run("crates/kv/src/example.rs", &arc).is_empty());
    assert!(run(
        "crates/kv/src/example.rs",
        "use piql_analysis::ordered::{Mutex, RwLock};"
    )
    .is_empty());
}

#[test]
fn raw_lock_exempts_the_wrapper_module() {
    let line = ["use std::", "sync::Mutex;"].concat();
    assert!(run("crates/analysis/src/ordered.rs", &line).is_empty());
}

#[test]
fn request_path_unwraps_are_flagged_only_on_request_files() {
    let text = "fn f() {\n    x.lock().unwrap();\n}\n";
    let found = run("crates/server/src/server.rs", text);
    assert_eq!(found.len(), 1);
    assert_eq!(found[0].rule, "request-unwrap");
    assert_eq!(found[0].line, 2);
    // Same text outside the request path: no finding.
    assert!(run("crates/kv/src/pool.rs", text).is_empty());
    // The executor and the result block are on the path: every `execute`
    // runs through them.
    for rel in ["crates/engine/src/exec.rs", "crates/core/src/rows.rs"] {
        let found = run(rel, text);
        assert_eq!(found.len(), 1, "{rel} should be flagged");
        assert_eq!(found[0].rule, "request-unwrap");
    }
    assert!(run("crates/engine/src/write.rs", text).is_empty());
}

#[test]
fn durability_replay_unwraps_are_flagged_only_on_replay_files() {
    let text = "fn f() {\n    bytes.try_into().unwrap();\n}\n";
    for rel in [
        "crates/durability/src/record.rs",
        "crates/durability/src/snapshot.rs",
        "crates/durability/src/wal.rs",
        "crates/server/src/durable.rs",
    ] {
        let found = run(rel, text);
        assert_eq!(found.len(), 1, "{rel} should be flagged");
        assert_eq!(found[0].rule, "durability-unwrap");
        assert_eq!(found[0].line, 2);
    }
    // Same text outside the replay path: no finding.
    assert!(run("crates/durability/src/lib.rs", text).is_empty());
    // The escape hatch works, with a justification.
    let allowed = "x.expect(\"spawn\"); // lint:allow(durability-unwrap): startup, not replay\n";
    assert!(run("crates/durability/src/wal.rs", allowed).is_empty());
}

#[test]
fn allow_directive_suppresses_on_same_or_previous_line() {
    let same = "x.expect(\"invariant\"); // lint:allow(request-unwrap): compile-time invariant\n";
    assert!(run("crates/server/src/registry.rs", same).is_empty());
    let above = "// lint:allow(request-unwrap): checked by caller\nx.unwrap();\n";
    assert!(run("crates/server/src/registry.rs", above).is_empty());
    // The wrong rule name does not suppress.
    let wrong = "// lint:allow(raw-lock)\nx.unwrap();\n";
    assert_eq!(run("crates/server/src/registry.rs", wrong).len(), 1);
}

#[test]
fn cfg_test_modules_are_skipped() {
    let text = format!(
        "fn live() {{}}\n#[cfg(test)]\nmod tests {{\n    fn t() {{ x.{}(); }}\n}}\n",
        ["unw", "rap"].concat()
    );
    assert!(run("crates/server/src/server.rs", &text).is_empty());
}

#[test]
fn undocumented_unsafe_requires_safety_comment() {
    let kw = ["uns", "afe"].concat();
    let bare = format!("{kw} {{ ptr.read() }}\n");
    let found = run("crates/kv/src/example.rs", &bare);
    assert_eq!(found.len(), 1);
    assert_eq!(found[0].rule, ["undocumented-", &kw].concat());

    let documented =
        format!("// SAFETY: ptr is valid for reads, checked above.\n{kw} {{ ptr.read() }}\n");
    assert!(run("crates/kv/src/example.rs", &documented).is_empty());
}

#[test]
fn a_rank_no_other_source_names_is_flagged() {
    let table = "/// A lock.\npub const KV_SHARD: u32 = 60;\n\
                 /// A lock that was deleted.\npub const SERVER_GONE: u32 = 6;\n";
    let users = [
        "let m = Mutex::new(rank::KV_SHARD, \"kv.shard\", ());",
        // a mention in a comment, or inside a longer name, names nothing
        "// SERVER_GONE used to guard the lane\nlet x = NOT_SERVER_GONE_EITHER;",
    ];
    let mut found = Vec::new();
    lint_orphan_ranks(Path::new("rank.rs"), table, &users, &mut found);
    assert_eq!(found.len(), 1, "{found:?}");
    assert_eq!(found[0].rule, "orphan-rank");
    assert_eq!(found[0].line, 4);
    assert!(found[0].excerpt.contains("SERVER_GONE"));
}

#[test]
fn a_pub_fn_nothing_else_names_is_flagged() {
    let source = "\
impl Pool {
    /// Doc comments may name [`Pool::sized_for_host`]; they use nothing.
    pub fn sized_for_host() -> Self {
        Self::new(4)
    }
    pub fn new(threads: usize) -> Self {
        Pool { threads }
    }
    pub const fn width(&self) -> usize {
        self.threads
    }
    // lint:allow(orphan-fn): called from generated code
    pub fn hook() {}
    fn private_and_unused() {}
}
#[cfg(test)]
mod tests {
    pub fn helper() {}
}
";
    let sources = [(PathBuf::from("crates/kv/src/pool.rs"), source.to_string())];
    // a test elsewhere in the repository is a user; a comment is not
    let users = ["assert_eq!(pool.width(), 4); // not sized_for_host".to_string()];
    let mut found = Vec::new();
    lint_orphan_fns(&sources, &users, &mut found);
    assert_eq!(found.len(), 1, "{found:?}");
    assert_eq!(found[0].rule, "orphan-fn");
    assert_eq!(found[0].line, 3);
    assert!(found[0].excerpt.contains("sized_for_host"));
}

#[test]
fn a_pub_fn_named_only_as_a_field_is_flagged() {
    let source = "\
pub struct Diagnostic {
    pub policy: Option<String>,
    pub width: usize,
    pub depth: usize,
}
impl Diagnostic {
    pub fn policy(&self) -> Option<&str> {
        self.policy.as_deref()
    }
    pub fn width(&self) -> usize {
        self.width
    }
    pub fn depth(&self) -> usize {
        self.depth
    }
    pub fn total<T>(&self) -> usize {
        0
    }
}
";
    let sources = [(
        PathBuf::from("crates/audit/src/diag.rs"),
        source.to_string(),
    )];
    // a struct-literal field and a field read name the field, not the fn;
    // a method call, a turbofish call and a path each name the fn
    let users = ["\
let d = Diagnostic { policy: None, width: 2, depth: 3 };
assert!(d.policy.is_none());
assert_eq!(d.width(), 2);
assert_eq!(d.total::<u8>(), 0);
let f = Diagnostic::depth;
"
    .to_string()];
    let mut found = Vec::new();
    lint_orphan_fns(&sources, &users, &mut found);
    assert_eq!(found.len(), 1, "{found:?}");
    assert_eq!(found[0].rule, "orphan-fn");
    assert_eq!(found[0].line, 7);
    assert!(found[0].excerpt.contains("policy"));
}

#[test]
fn a_run_copied_into_a_second_crate_is_flagged() {
    // 8 normalized lines: the `};` and `}` lines do not count
    const COPY: &str = "\
let mut b = Builder::new(&spec.name);
for (name, ty, nullable) in &spec.fields {
    b = if *nullable {
        b.field(name.clone(), *ty)
    } else {
        b.required_field(name.clone(), *ty)
    };
}
let mut def = b.build();
def.key = spec.key.clone();
";
    assert_eq!(TWIN_WINDOW, 8);
    let twins = |files: &[(&str, String)]| {
        let sources: Vec<(PathBuf, String)> = files
            .iter()
            .map(|(rel, text)| (PathBuf::from(rel), text.clone()))
            .collect();
        let mut found = Vec::new();
        lint_twins(&sources, &mut found);
        found
    };
    // indentation, blank lines and comments do not hide a copy
    let reindented: String = COPY
        .lines()
        .flat_map(|l| ["", "    // a remark", l])
        .map(|l| format!("        {l}\n"))
        .collect();
    let found = twins(&[
        ("crates/audit/src/workload.rs", format!("use x;\n\n{COPY}")),
        (
            "crates/engine/src/database.rs",
            format!("fn a() {{\n{reindented}}}\n"),
        ),
    ]);
    assert_eq!(found.len(), 1, "{found:?}");
    assert_eq!(found[0].rule, "twin");
    assert_eq!(found[0].file, Path::new("crates/audit/src/workload.rs"));
    assert_eq!(found[0].line, 3);
    assert!(
        found[0]
            .excerpt
            .contains("8 normalized lines also at crates/engine/src/database.rs:4"),
        "{found:?}"
    );

    // two files of one crate, a copy one line short of the window, and a
    // copy inside a test module are not flagged
    let short: String = COPY.lines().skip(1).map(|l| format!("{l}\n")).collect();
    let tests_only = format!("fn live() {{}}\n#[cfg(test)]\nmod tests {{\n{COPY}}}\n");
    for other in [
        ("crates/engine/src/plan.rs", COPY.to_string()),
        ("crates/audit/src/workload.rs", short),
        ("crates/audit/src/workload.rs", tests_only),
    ] {
        let found = twins(&[("crates/engine/src/database.rs", COPY.to_string()), other]);
        assert!(found.is_empty(), "{found:?}");
    }

    // the escape hatch, above either copy
    let allowed = format!("// lint:allow(twin): the two must stay apart\n{COPY}");
    let found = twins(&[
        ("crates/audit/src/workload.rs", COPY.to_string()),
        ("crates/engine/src/database.rs", allowed),
    ]);
    assert!(found.is_empty(), "{found:?}");
}
