//! The workspace concurrency lint: a small, offline, source-scanning
//! checker run as `cargo run -p piql-analysis --bin lint` (and as a unit
//! test, so `cargo test` enforces it).
//!
//! Rules:
//!
//! - **`raw-lock`** — `Mutex`/`RwLock`/`Condvar` must come from
//!   `piql_analysis::ordered`, never from `std::sync` or `parking_lot`
//!   directly. Raw locks dodge the rank table, so an inversion through one
//!   is invisible to `lock-order` builds. Scope: `crates/*/src/**`, minus
//!   the wrapper module itself.
//! - **`request-unwrap`** — no `.unwrap()` / `.expect()` in
//!   request-handling sources: the server's, the executor and result
//!   block every `execute` runs through, and the compiler every `prepare`
//!   and `explain` runs through. A panic there tears down a
//!   connection (or the whole serve loop) for a condition a client can
//!   trigger; return a protocol error instead. Scope: the request-path
//!   files listed in [`REQUEST_PATH_FILES`], non-test code.
//! - **`durability-unwrap`** — no `.unwrap()` / `.expect()` in the
//!   durability replay/recovery sources. Replay runs at boot over
//!   whatever bytes survived the crash; a panic there turns a torn tail
//!   (which recovery exists to tolerate) into a server that cannot start.
//!   Decode errors must flow through the `Truncated`/`InvalidData` paths.
//!   Scope: the files listed in [`DURABILITY_PATH_FILES`], non-test code.
//! - **`undocumented-unsafe`** — every `unsafe` block/fn needs a
//!   `// SAFETY:` comment on the same line or within the three lines
//!   above. Scope: `crates/*/src/**`.
//! - **`orphan-rank`** — every `pub const` of the rank table
//!   (`analysis/src/rank.rs`) must be named by code in some other file
//!   under `crates/*/src/**`. A rank no lock is built with documents a lock
//!   that no longer exists, and misleads whoever places the next one.
//! - **`orphan-fn`** — a `pub fn` under `crates/*/src/**` must be named by
//!   code somewhere else in the repository: another line of any `.rs` file
//!   outside `target/` (tests, benches, examples and `perfbench/` all count,
//!   and so does any other item of the same name — the rule can only
//!   under-report). A field is not a use: neither `name:` (a field
//!   declaration or struct-literal field; `name::` still counts) nor `.name`
//!   with no call after it. What `dead_code` cannot see across a crate
//!   boundary.
//! - **`twin`** — no [`TWIN_WINDOW`] consecutive normalized lines may appear
//!   in the `src` of two different crates: a second copy of a definition
//!   is one that can drift from the first. Normalized: lines trimmed, and
//!   blank, comment-only and lone-delimiter (`}`, `);`, …) lines skipped.
//!   One finding per copied run, at its first line in the file whose path
//!   sorts first; an allow anywhere from the line above either copy to its
//!   end suppresses it.
//!
//! Suppress a finding with `// lint:allow(<rule>)` on the offending line
//! or the line directly above, ideally with a justification after it.
//! `#[cfg(test)]` modules are skipped entirely (the repo convention keeps
//! them last in the file).
//!
//! The pattern constants below are assembled with `concat!` so this file's
//! own source never contains the contiguous tokens it hunts for.

use std::collections::HashMap;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Rule identifiers, as used in `lint:allow(...)`.
pub const RULE_RAW_LOCK: &str = "raw-lock";
pub const RULE_REQUEST_UNWRAP: &str = "request-unwrap";
pub const RULE_DURABILITY_UNWRAP: &str = "durability-unwrap";
pub const RULE_UNDOCUMENTED_UNSAFE: &str = concat!("undocumented-", "unsafe");
pub const RULE_ORPHAN_RANK: &str = "orphan-rank";
pub const RULE_ORPHAN_FN: &str = "orphan-fn";
pub const RULE_TWIN: &str = "twin";

/// Normalized lines a `twin` copy must span to be flagged. At 7 or 8 the
/// rule found only a table definition written out in two crates; at 6 it
/// also matched two destructurings of the same plan-node variant.
pub const TWIN_WINDOW: usize = 8;

/// Sources on the request-handling path (relative to `crates/`).
pub const REQUEST_PATH_FILES: &[&str] = &[
    "server/src/server.rs",
    "server/src/protocol.rs",
    "server/src/binary.rs",
    "core/src/json.rs",
    "server/src/wire.rs",
    "server/src/registry.rs",
    "server/src/budget.rs",
    "server/src/gate.rs",
    "engine/src/exec.rs",
    "core/src/rows.rs",
    "core/src/opt/index_selection.rs",
    "core/src/opt/phase1.rs",
    "core/src/opt/phase2.rs",
];

/// Durability sources on the replay/recovery path (relative to `crates/`).
pub const DURABILITY_PATH_FILES: &[&str] = &[
    "durability/src/record.rs",
    "durability/src/snapshot.rs",
    "durability/src/wal.rs",
    "durability/src/coord.rs",
    "server/src/durable.rs",
];

/// Files exempt from `raw-lock`: the ranked wrapper implementation itself.
const RAW_LOCK_EXEMPT: &[&str] = &["analysis/src/ordered.rs"];

const SYNC_PROVENANCE: [&str; 5] = [
    concat!("std::", "sync"),
    concat!("parking", "_lot"),
    concat!("sync::", "Mutex"),
    concat!("sync::", "RwLock"),
    concat!("sync::", "Condvar"),
];
const LOCK_TYPES: [&str; 3] = ["Mutex", "RwLock", "Condvar"];
const UNWRAP_CALLS: [&str; 2] = [concat!(".unw", "rap()"), concat!(".exp", "ect(")];
const UNSAFE_KEYWORD: [&str; 2] = [concat!("uns", "afe "), concat!("uns", "afe{")];
const SAFETY_COMMENT: &str = concat!("SAF", "ETY:");

/// One lint violation.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Path relative to the workspace root.
    pub file: PathBuf,
    /// 1-based line number.
    pub line: usize,
    pub rule: &'static str,
    pub excerpt: String,
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file.display(),
            self.line,
            self.rule,
            self.excerpt.trim()
        )
    }
}

impl Finding {
    /// A finding of `rule` at 0-based line `i` of `file`.
    fn at(file: &Path, i: usize, rule: &'static str, excerpt: impl Into<String>) -> Finding {
        Finding {
            file: file.to_path_buf(),
            line: i + 1,
            rule,
            excerpt: excerpt.into(),
        }
    }
}

/// Scan results for a workspace.
#[derive(Debug, Default)]
pub struct Report {
    pub findings: Vec<Finding>,
    pub files_scanned: usize,
}

/// Lint every `crates/*/src/**/*.rs` file under `root`; every other `.rs`
/// file under `root` is read as a possible user of what those define.
pub fn lint_workspace(root: &Path) -> io::Result<Report> {
    let mut files = Vec::new();
    collect_rs_files(root, &mut files)?;
    files.sort();

    let mut report = Report::default();
    let mut sources = Vec::new();
    let mut users = Vec::new();
    for file in files {
        let rel = file.strip_prefix(root).unwrap_or(&file).to_path_buf();
        let text = fs::read_to_string(&file)?;
        let mut parts = rel.components().map(|c| c.as_os_str());
        if parts.next() == Some("crates".as_ref()) && parts.nth(1) == Some("src".as_ref()) {
            report.files_scanned += 1;
            lint_file(&rel, &text, &mut report.findings);
            sources.push((rel, text));
        } else {
            users.push(text);
        }
    }
    lint_orphan_fns(&sources, &users, &mut report.findings);
    lint_twins(&sources, &mut report.findings);
    let rank_table = Path::new("crates/analysis/src/rank.rs");
    if let Some(at) = sources.iter().position(|(rel, _)| rel == rank_table) {
        let (rel, table) = sources.swap_remove(at);
        let users: Vec<&str> = sources.iter().map(|(_, text)| text.as_str()).collect();
        lint_orphan_ranks(&rel, &table, &users, &mut report.findings);
    }
    Ok(report)
}

/// The `orphan-rank` rule: flag each `pub const` in the rank table's text
/// that the code (comments stripped) of no file in `users` names. Exposed
/// for tests.
pub fn lint_orphan_ranks(rel: &Path, table: &str, users: &[&str], out: &mut Vec<Finding>) {
    for (i, raw) in table.lines().enumerate() {
        let declared = raw.trim().strip_prefix("pub const ");
        let Some(name) = declared.and_then(|rest| rest.split(':').next()) else {
            continue;
        };
        if !users.iter().any(|text| code_words(text).any(|w| w == name)) {
            out.push(Finding::at(rel, i, RULE_ORPHAN_RANK, raw));
        }
    }
}

/// The identifiers of `text`'s code, comments stripped.
fn code_words(text: &str) -> impl Iterator<Item = &str> {
    text.lines()
        .map(|line| line.split("//").next().unwrap_or(line))
        .flat_map(|code| code.split(|c: char| !c.is_alphanumeric() && c != '_'))
        .filter(|word| !word.is_empty())
}

/// The identifiers of `text`'s code that may name a function: every one of
/// [`code_words`] except a field — `name:` (but not `name::`), or `.name`
/// with no `(` or `::` after it.
fn fn_words(text: &str) -> impl Iterator<Item = &str> {
    code_words(text).filter(move |word| {
        let at = word.as_ptr() as usize - text.as_ptr() as usize;
        let after = text[at + word.len()..].trim_start();
        let path_or_call = after.starts_with("::") || after.starts_with('(');
        let declared = after.starts_with(':') && !path_or_call;
        let read = text[..at].ends_with('.') && !path_or_call;
        !declared && !read
    })
}

/// The `orphan-fn` rule: flag each `pub fn` in `sources` (test modules
/// excluded) whose name the code of `sources` and `users` spells exactly
/// once — its own definition (`fn_words`: fields do not count). Exposed
/// for tests.
pub fn lint_orphan_fns(sources: &[(PathBuf, String)], users: &[String], out: &mut Vec<Finding>) {
    let mut uses: HashMap<&str, usize> = HashMap::new();
    for text in sources.iter().map(|(_, text)| text).chain(users) {
        for word in fn_words(text) {
            *uses.entry(word).or_default() += 1;
        }
    }
    for (rel, text) in sources {
        let lines: Vec<&str> = text.lines().collect();
        for (i, raw) in lines.iter().enumerate() {
            if starts_test_module(&lines, i) {
                break;
            }
            let declared = raw.trim().strip_prefix("pub ");
            let declared = declared.map(|rest| rest.strip_prefix("const ").unwrap_or(rest));
            let Some(name) = declared
                .and_then(|rest| rest.strip_prefix("fn "))
                .and_then(|rest| code_words(rest).next())
            else {
                continue;
            };
            if uses.get(name).copied().unwrap_or(0) <= 1 && !allowed(&lines, i, RULE_ORPHAN_FN) {
                out.push(Finding::at(rel, i, RULE_ORPHAN_FN, *raw));
            }
        }
    }
}

/// The `twin` rule: flag each run of at least [`TWIN_WINDOW`] normalized
/// lines that the non-test code of files in two different crates both
/// contains (`sources` paths are `crates/<crate>/src/…`, in path order, as
/// [`lint_workspace`] lists them). Exposed for tests.
pub fn lint_twins(sources: &[(PathBuf, String)], out: &mut Vec<Finding>) {
    let files: Vec<(Vec<&str>, Vec<usize>, Vec<&str>)> = sources
        .iter()
        .map(|(_, text)| {
            let raw: Vec<&str> = text.lines().collect();
            let (at, lines): (Vec<usize>, Vec<&str>) = (0..raw.len())
                .take_while(|&i| !starts_test_module(&raw, i))
                .map(|i| (i, raw[i].trim()))
                .filter(|(_, l)| !l.starts_with("//") && !l.chars().all(|c| "{}()[];,".contains(c)))
                .unzip();
            (raw, at, lines)
        })
        .collect();
    let mut seen: HashMap<&[&str], Vec<(usize, usize)>> = HashMap::new();
    for (f, (_, _, lines)) in files.iter().enumerate() {
        for (p, window) in lines.windows(TWIN_WINDOW).enumerate() {
            seen.entry(window).or_default().push((f, p));
        }
    }
    let crate_of = |f: usize| sources[f].0.components().nth(1);
    let mut pairs = std::collections::BTreeSet::new();
    for at in seen.values() {
        for (k, &(fa, pa)) in at.iter().enumerate() {
            for &(fb, pb) in &at[k + 1..] {
                if crate_of(fa) != crate_of(fb) {
                    pairs.insert((fa, pa, fb, pb));
                }
            }
        }
    }
    let tag = format!("lint:allow({RULE_TWIN})");
    for &(fa, pa, fb, pb) in &pairs {
        if pa > 0 && pb > 0 && pairs.contains(&(fa, pa - 1, fb, pb - 1)) {
            continue; // inside a run already reported
        }
        let len = TWIN_WINDOW
            + (1..)
                .take_while(|n| pairs.contains(&(fa, pa + n, fb, pb + n)))
                .count();
        // the copy's raw lines, from the one above its first to its last
        let span = |f: usize, p: usize| {
            let (raw, at, _) = &files[f];
            (at[p], &raw[at[p].saturating_sub(1)..=at[p + len - 1]])
        };
        let ((first, a), (first_b, b)) = (span(fa, pa), span(fb, pb));
        if a.iter().chain(b).any(|l| l.contains(&tag)) {
            continue;
        }
        let (rel, other) = (&sources[fa].0, sources[fb].0.display());
        let excerpt = format!("{len} normalized lines also at {other}:{}", first_b + 1);
        out.push(Finding::at(rel, first, RULE_TWIN, excerpt));
    }
}

/// Whether line `i` carries, or sits directly under, `lint:allow(<rule>)`.
fn allowed(lines: &[&str], i: usize, rule: &str) -> bool {
    let tag = format!("lint:allow({rule})");
    lines[i].contains(&tag) || (i > 0 && lines[i - 1].contains(&tag))
}

/// Whether line `i` opens the file's `#[cfg(test)] mod …` (repo convention
/// keeps test modules last, so the rules stop reading there).
fn starts_test_module(lines: &[&str], i: usize) -> bool {
    lines[i].trim() == "#[cfg(test)]"
        && lines[i + 1..]
            .iter()
            .map(|l| l.trim())
            .find(|l| !l.is_empty() && !l.starts_with("#["))
            .is_some_and(|l| l.starts_with("mod ") || l.starts_with("pub mod "))
}

/// Every `.rs` file under `dir`, build output and hidden directories aside.
fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let path = entry?.path();
        let skipped = path
            .file_name()
            .and_then(|name| name.to_str())
            .is_some_and(|name| name == "target" || name.starts_with('.'));
        if skipped {
            continue;
        }
        if path.is_dir() {
            collect_rs_files(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Lint one file's text. `rel` is the path relative to the workspace root
/// (used for scoping and reporting). Exposed for tests.
pub fn lint_file(rel: &Path, text: &str, out: &mut Vec<Finding>) {
    let in_crates = rel.strip_prefix("crates").unwrap_or(rel);
    let check_raw_lock = !RAW_LOCK_EXEMPT.iter().any(|e| in_crates == Path::new(e));
    let check_unwrap = REQUEST_PATH_FILES.iter().any(|e| in_crates == Path::new(e));
    let check_durability = DURABILITY_PATH_FILES
        .iter()
        .any(|e| in_crates == Path::new(e));

    let lines: Vec<&str> = text.lines().collect();
    let mut i = 0;
    while i < lines.len() {
        let raw = lines[i];

        if starts_test_module(&lines, i) {
            break;
        }

        let allowed = |rule: &str| allowed(&lines, i, rule);
        // Comment-stripped view for code-pattern rules.
        let code = raw.split("//").next().unwrap_or(raw);

        if check_raw_lock
            && SYNC_PROVENANCE.iter().any(|p| code.contains(p))
            && LOCK_TYPES.iter().any(|t| code.contains(t))
            && !allowed(RULE_RAW_LOCK)
        {
            out.push(Finding::at(rel, i, RULE_RAW_LOCK, raw));
        }

        if check_unwrap
            && UNWRAP_CALLS.iter().any(|p| code.contains(p))
            && !allowed(RULE_REQUEST_UNWRAP)
        {
            out.push(Finding::at(rel, i, RULE_REQUEST_UNWRAP, raw));
        }

        if check_durability
            && UNWRAP_CALLS.iter().any(|p| code.contains(p))
            && !allowed(RULE_DURABILITY_UNWRAP)
        {
            out.push(Finding::at(rel, i, RULE_DURABILITY_UNWRAP, raw));
        }

        if UNSAFE_KEYWORD.iter().any(|p| code.contains(p)) && !allowed(RULE_UNDOCUMENTED_UNSAFE) {
            let documented = raw.contains(SAFETY_COMMENT)
                || lines[i.saturating_sub(3)..i]
                    .iter()
                    .any(|l| l.contains(SAFETY_COMMENT));
            if !documented {
                out.push(Finding::at(rel, i, RULE_UNDOCUMENTED_UNSAFE, raw));
            }
        }

        i += 1;
    }
}
