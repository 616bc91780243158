//! ARCHITECTURE.md and PROTOCOL.md name only what exists.
//!
//! Every backticked Rust path in ARCHITECTURE.md (`Type::item`,
//! `module::item`, `piql_crate::module::Type`) must resolve, segment by
//! segment, to items defined under `crates/*/src`, and every backticked
//! `*.rs` file in either document must exist in the tree; a
//! `file.rs::name` span must also define `fn name` in that file. A few std
//! names are skipped.

use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::path::{Path, PathBuf};

/// First segments that name std or the language, not the workspace.
const STD: &[&str] = &[
    "std", "core", "alloc", "Arc", "BTreeMap", "BTreeSet", "Box", "Option", "Result", "String",
    "Vec", "u32", "u64", "usize",
];

/// The item keywords whose next identifier is a definition.
const ITEMS: &[&str] = &[
    "fn", "struct", "enum", "trait", "type", "const", "static", "mod", "union",
];

/// One source file: which crate and module it is, what it defines.
struct Source {
    /// Its crate's directory name (`kv` for `crates/kv`).
    krate: String,
    /// Its module path inside the crate, file by file (`["opt", "phase1"]`).
    modules: Vec<String>,
    /// Each item keyword's defined names.
    defs: BTreeMap<&'static str, BTreeSet<String>>,
    /// Names that head a line as an enum variant or a struct field does.
    members: BTreeSet<String>,
    /// Types this file writes an `impl` block for.
    impls: BTreeSet<String>,
    /// Inline `mod name {` blocks.
    inline_mods: BTreeSet<String>,
}

fn ident_at(text: &str) -> &str {
    let end = text
        .find(|c: char| !(c.is_alphanumeric() || c == '_'))
        .unwrap_or(text.len());
    &text[..end]
}

fn is_ident(s: &str) -> bool {
    !s.is_empty()
        && !s.starts_with(|c: char| c.is_ascii_digit())
        && s.chars().all(|c| c.is_alphanumeric() || c == '_')
}

impl Source {
    fn read(path: PathBuf, krate: &str, src: &Path) -> Source {
        let text = fs::read_to_string(&path).unwrap();
        let rel = path.strip_prefix(src).unwrap();
        let mut modules: Vec<String> = rel
            .iter()
            .map(|part| part.to_string_lossy().trim_end_matches(".rs").to_string())
            .collect();
        if matches!(
            modules.last().map(String::as_str),
            Some("mod" | "lib" | "main")
        ) {
            modules.pop();
        }
        let mut source = Source {
            krate: krate.to_string(),
            modules,
            defs: BTreeMap::new(),
            members: BTreeSet::new(),
            impls: BTreeSet::new(),
            inline_mods: BTreeSet::new(),
        };
        for line in text.lines() {
            let code = line.split("//").next().unwrap().trim();
            source.scan(code);
        }
        source
    }

    fn scan(&mut self, code: &str) {
        let words: Vec<&str> = code
            .split(|c: char| c.is_whitespace() || c == '(' || c == '<')
            .filter(|w| !w.is_empty())
            .collect();
        for pair in words.windows(2) {
            if let Some(kw) = ITEMS.iter().find(|kw| **kw == pair[0]) {
                let name = ident_at(pair[1]);
                if is_ident(name) {
                    self.defs.entry(kw).or_default().insert(name.to_string());
                    if *kw == "mod" && code.ends_with('{') {
                        self.inline_mods.insert(name.to_string());
                    }
                }
            }
        }
        if let Some(at) = words
            .iter()
            .position(|w| *w == "impl" || w.starts_with("impl<"))
        {
            // `impl Type`, `impl<T> Type<T>`, `impl Trait for Type`
            let rest = &words[at + 1..];
            let target = match rest.iter().position(|w| *w == "for") {
                Some(f) => rest.get(f + 1),
                None => rest.iter().find(|w| !w.starts_with(['\'', '>'])),
            };
            if let Some(target) = target {
                let name = ident_at(target.trim_start_matches('&'));
                self.impls.insert(name.to_string());
            }
        }
        // a variant (`Name,` `Name(` `Name {`) or a field (`name:`)
        let head = code
            .trim_start_matches("pub(crate) ")
            .trim_start_matches("pub ");
        let name = ident_at(head);
        let after = head[name.len()..].trim_start();
        let member = match name.chars().next() {
            Some(c) if c.is_uppercase() => {
                after.is_empty() || after.starts_with([',', '(', '{', '='])
            }
            Some(_) => after.starts_with(':') && !after.starts_with("::"),
            None => false,
        };
        if member {
            self.members.insert(name.to_string());
        }
    }

    fn defines(&self, name: &str) -> bool {
        self.defs.values().any(|names| names.contains(name)) || self.members.contains(name)
    }

    fn defines_type(&self, name: &str) -> bool {
        ["struct", "enum", "trait", "type", "union"]
            .iter()
            .any(|kw| self.defs.get(kw).is_some_and(|names| names.contains(name)))
    }
}

struct Tree {
    root: PathBuf,
    sources: Vec<Source>,
}

fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

impl Tree {
    fn load() -> Tree {
        let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
        let mut sources = Vec::new();
        for krate in fs::read_dir(root.join("crates")).unwrap().flatten() {
            let name = krate.file_name().to_string_lossy().to_string();
            let src = krate.path().join("src");
            let mut files = Vec::new();
            rust_files(&src, &mut files);
            files.sort();
            sources.extend(files.into_iter().map(|f| Source::read(f, &name, &src)));
        }
        Tree { root, sources }
    }

    /// The files a path's first segment opens: a crate, a module or a type.
    fn first(&self, seg: &str) -> Vec<&Source> {
        if let Some(krate) = seg.strip_prefix("piql_") {
            return self.sources.iter().filter(|s| s.krate == krate).collect();
        }
        let module: Vec<&Source> = self
            .sources
            .iter()
            .filter(|s| s.modules.iter().any(|m| m == seg) || s.inline_mods.contains(seg))
            .collect();
        if !module.is_empty() {
            return module;
        }
        self.type_files(seg, &self.sources.iter().collect::<Vec<_>>())
    }

    /// The files that define type `name` in `scope`, plus the files of its
    /// crates that implement something for it.
    fn type_files<'t>(&'t self, name: &str, scope: &[&'t Source]) -> Vec<&'t Source> {
        let krates: BTreeSet<&str> = scope
            .iter()
            .filter(|s| s.defines_type(name))
            .map(|s| s.krate.as_str())
            .collect();
        self.sources
            .iter()
            .filter(|s| krates.contains(s.krate.as_str()))
            .filter(|s| s.defines_type(name) || s.impls.contains(name))
            .collect()
    }

    /// The files a middle segment opens inside `scope`: a module or a type.
    fn next<'t>(&'t self, seg: &str, scope: &[&'t Source]) -> Vec<&'t Source> {
        let module: Vec<&Source> = scope
            .iter()
            .copied()
            .filter(|s| s.modules.iter().any(|m| m == seg) || s.inline_mods.contains(seg))
            .collect();
        if !module.is_empty() {
            return module;
        }
        self.type_files(seg, scope)
    }

    /// Whether `path` (segments, the last possibly a `{a, b}` list)
    /// resolves; the reason it does not otherwise.
    fn resolve(&self, segs: &[&str]) -> Result<(), String> {
        let mut scope = self.first(segs[0]);
        for (i, seg) in segs.iter().enumerate().skip(1) {
            if scope.is_empty() {
                return Err(format!("`{}` names nothing", segs[..i].join("::")));
            }
            if i + 1 < segs.len() {
                scope = self.next(seg, &scope);
                continue;
            }
            let names = seg.trim_start_matches('{').trim_end_matches('}');
            for name in names.split(',').map(str::trim) {
                let found =
                    scope.iter().any(|s| s.defines(name)) || !self.next(name, &scope).is_empty();
                if !found {
                    return Err(format!("no `{name}` in `{}`", segs[..i].join("::")));
                }
            }
        }
        Ok(())
    }

    /// The tree's files whose path ends with `name`'s components.
    fn files_named(&self, name: &str) -> Vec<PathBuf> {
        let want: Vec<&str> = name.split('/').collect();
        let mut files = Vec::new();
        for top in ["crates", "src", "tests", "examples", "perfbench"] {
            rust_files(&self.root.join(top), &mut files);
        }
        files.retain(|f| {
            let parts: Vec<String> = f
                .strip_prefix(&self.root)
                .unwrap()
                .iter()
                .map(|p| p.to_string_lossy().to_string())
                .collect();
            parts.len() >= want.len() && parts[parts.len() - want.len()..] == want[..]
        });
        files
    }
}

/// The backticked spans of `text`, outside its fenced code blocks.
fn spans(text: &str) -> Vec<&str> {
    let prose = text.split("```").step_by(2);
    prose
        .flat_map(|part| part.split('`').skip(1).step_by(2))
        .collect()
}

/// A span as path segments: trailing call parentheses and generic
/// arguments dropped, a `{a, b}` list kept as the last segment.
fn path_of(span: &str) -> Option<Vec<&str>> {
    let span = span.split_once('(').map_or(span, |(head, _)| head);
    let span = span.split_once('<').map_or(span, |(head, _)| head);
    if !span.contains("::") {
        return None;
    }
    let segs: Vec<&str> = span.split("::").collect();
    let (last, init) = segs.split_last().unwrap();
    let list_ok = last.starts_with('{')
        && last.ends_with('}')
        && last[1..last.len() - 1]
            .split(',')
            .all(|n| is_ident(n.trim()));
    (init.iter().all(|s| is_ident(s)) && (is_ident(last) || list_ok)).then_some(segs)
}

/// The spans of `doc` that name a file (`*.rs`, or `file.rs::name`), and
/// why each that does not exist fails: no such file, or no `fn name` in it.
fn missing_files<'d>(tree: &Tree, doc: &'d str) -> (Vec<&'d str>, Vec<String>) {
    let (mut files, mut missing) = (Vec::new(), Vec::new());
    for span in spans(doc) {
        let (file, item) = span
            .split_once(".rs::")
            .map_or((span, None), |(f, i)| (&span[..f.len() + 3], Some(i)));
        if !file.ends_with(".rs") || file.contains(' ') {
            continue;
        }
        files.push(span);
        let found = tree.files_named(file);
        if found.is_empty() {
            missing.push(format!("`{span}`: no such file"));
        } else if let Some(item) = item {
            let defined = found.iter().any(|f| {
                let text = fs::read_to_string(f).unwrap();
                text.contains(&format!("fn {item}("))
            });
            if !defined {
                missing.push(format!("`{span}`: no `fn {item}` in `{file}`"));
            }
        }
    }
    (files, missing)
}

#[test]
fn architecture_names_only_what_exists() {
    let tree = Tree::load();
    let doc = fs::read_to_string(tree.root.join("ARCHITECTURE.md")).unwrap();
    let (files, mut missing) = missing_files(&tree, &doc);
    let mut paths = 0;
    for span in spans(&doc) {
        if files.contains(&span) {
            continue;
        }
        let Some(segs) = path_of(span) else { continue };
        if STD.contains(&segs[0]) {
            continue;
        }
        paths += 1;
        if let Err(why) = tree.resolve(&segs) {
            missing.push(format!("`{span}`: {why}"));
        }
    }
    assert!(
        paths > 0 && !files.is_empty(),
        "no names found: {paths} paths, {} files",
        files.len()
    );
    assert!(
        missing.is_empty(),
        "ARCHITECTURE.md names what does not exist:\n{}",
        missing.join("\n")
    );
}

/// PROTOCOL.md cites the codecs and the suites that pin them by file.
#[test]
fn protocol_names_only_files_that_exist() {
    let tree = Tree::load();
    let doc = fs::read_to_string(tree.root.join("PROTOCOL.md")).unwrap();
    let (files, missing) = missing_files(&tree, &doc);
    assert!(!files.is_empty(), "PROTOCOL.md names no file");
    assert!(
        missing.is_empty(),
        "PROTOCOL.md names what does not exist:\n{}",
        missing.join("\n")
    );
}

/// A row of `tests/cost_golden.txt`'s allocation sections, by its
/// `shape · layer` name: requests, allocations and bytes asked for.
fn golden_rows(golden: &str) -> BTreeMap<String, [u64; 3]> {
    let allocations = golden.split("\n== store").next().unwrap();
    let mut rows = BTreeMap::new();
    for line in allocations.lines() {
        let fields: Vec<&str> = line.split_whitespace().collect();
        let Some(at) = fields.len().checked_sub(4) else {
            continue;
        };
        let numbers: Vec<u64> = fields[at..at + 3]
            .iter()
            .filter_map(|f| f.parse().ok())
            .collect();
        if let [n, allocs, bytes] = numbers[..] {
            rows.insert(fields[..at].join(" "), [n, allocs, bytes]);
        }
    }
    rows
}

/// The number at the start of `text`, its thousands separated by commas.
fn leading_count(text: &str) -> Option<(u64, &str)> {
    let end = text
        .find(|c: char| !(c.is_ascii_digit() || c == ','))
        .unwrap_or(text.len());
    let digits = text[..end].replace(',', "");
    Some((digits.parse().ok()?, &text[end..]))
}

/// Every backticked cost-row name in ARCHITECTURE.md (a `shape · layer`
/// span, wrapped lines joined) that is followed by a count in parentheses
/// cites that row as it is in `tests/cost_golden.txt`: the count is its
/// allocations — its bytes when the word after it is `bytes` — and an
/// `over N` after it is its requests.
#[test]
fn cited_cost_rows_match_the_golden() {
    let tree = Tree::load();
    let doc = fs::read_to_string(tree.root.join("ARCHITECTURE.md")).unwrap();
    let golden = fs::read_to_string(tree.root.join("tests/cost_golden.txt")).unwrap();
    let rows = golden_rows(&golden);
    let (mut cited, mut wrong) = (0, Vec::new());
    for part in doc.split("```").step_by(2) {
        let pieces: Vec<&str> = part.split('`').collect();
        for (span, after) in pieces
            .iter()
            .skip(1)
            .step_by(2)
            .zip(pieces.iter().skip(2).step_by(2))
        {
            let name = span.split_whitespace().collect::<Vec<_>>().join(" ");
            let Some(parenthesised) = after.trim_start().strip_prefix('(') else {
                continue;
            };
            let (Some((count, rest)), true) = (leading_count(parenthesised), name.contains(" · "))
            else {
                continue;
            };
            cited += 1;
            let Some(&[n, allocs, bytes]) = rows.get(&name) else {
                wrong.push(format!("`{name}`: no such row"));
                continue;
            };
            let rest = rest.split_whitespace().collect::<Vec<_>>().join(" ");
            let (column, golden) = if rest.starts_with("bytes") {
                ("bytes", bytes)
            } else {
                ("allocations", allocs)
            };
            if count != golden {
                wrong.push(format!(
                    "`{name}`: cited {count} {column}, the golden has {golden}"
                ));
            }
            let over = rest
                .strip_prefix("allocations ")
                .unwrap_or(&rest)
                .strip_prefix("over ")
                .and_then(leading_count);
            if let Some((requests, _)) = over {
                if requests != n {
                    wrong.push(format!(
                        "`{name}`: cited over {requests}, the golden has {n}"
                    ));
                }
            }
        }
    }
    assert!(cited > 0, "ARCHITECTURE.md cites no cost row");
    assert!(
        wrong.is_empty(),
        "ARCHITECTURE.md cites cost rows the golden does not have:\n{}",
        wrong.join("\n")
    );
}
