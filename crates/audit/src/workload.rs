//! The workload file format the offline auditor consumes.
//!
//! A `.piql` workload is the schema plus every statement an application
//! ships, with declared SLOs — enough to audit the whole workload without
//! touching storage:
//!
//! ```text
//! -- comments run to end of line
//! SLO 100ms CONFIDENCE 0.9          -- default for following statements
//!
//! CREATE TABLE subs (owner VARCHAR(32), target VARCHAR(32),
//!   PRIMARY KEY (owner, target), CARDINALITY LIMIT 100 (owner));
//!
//! STATEMENT thoughtstream SLO 50ms:
//! SELECT * FROM subs WHERE owner = <u>;
//!
//! SELECT * FROM subs WHERE owner = <u> LIMIT 10;   -- auto-named stmt2
//! ```
//!
//! `CREATE TABLE` / `CREATE INDEX` statements build a pure [`Catalog`]
//! through the calls the engine's DDL path makes — [`Catalog::create_table`]
//! registers each table with its enforcement indexes, all or nothing — so
//! the gate compiles against the catalog a server would hold, minus
//! storage. `SELECT` statements become audit entries. Statements end at `;`
//! outside string literals and may span lines.

use piql_core::ast::Statement;
use piql_core::catalog::{Catalog, CatalogError, IndexDef};
use piql_core::parser::parse;
use piql_predict::SloConfig;
use std::fmt;

/// One auditable SELECT from the workload file.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadEntry {
    pub name: String,
    pub sql: String,
    /// 1-based line where the statement starts.
    pub line: usize,
    pub slo: SloConfig,
}

/// A parsed workload: the schema it declares and the statements to audit.
#[derive(Debug, Clone)]
pub struct Workload {
    pub catalog: Catalog,
    pub entries: Vec<WorkloadEntry>,
    /// Number of DDL statements applied to the catalog.
    pub ddl_count: usize,
}

/// A workload file error, with its 1-based source line.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadError {
    pub line: usize,
    pub message: String,
}

impl fmt::Display for WorkloadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for WorkloadError {}

fn err(line: usize, message: impl Into<String>) -> WorkloadError {
    WorkloadError {
        line,
        message: message.into(),
    }
}

/// Parse a workload file with the stock default SLO.
pub fn parse_workload(text: &str) -> Result<Workload, WorkloadError> {
    parse_workload_with(text, SloConfig::default())
}

/// Parse a workload file. `initial_slo` is the default applied to
/// statements until the file's first `SLO` directive (the CLI's
/// `--slo-ms` / `--confidence` flags feed in here).
pub fn parse_workload_with(text: &str, initial_slo: SloConfig) -> Result<Workload, WorkloadError> {
    let mut catalog = Catalog::new();
    let mut entries: Vec<WorkloadEntry> = Vec::new();
    let mut ddl_count = 0usize;
    let mut default_slo = initial_slo;

    let mut buffer = String::new();
    let mut buffer_line = 0usize;
    // header captured from a `STATEMENT name [SLO ...]:` prefix
    let mut pending: Option<(String, Option<SloConfig>)> = None;
    let mut auto_name = 0usize;

    for (idx, raw) in text.lines().enumerate() {
        let lineno = idx + 1;
        let mut line = strip_comment(raw).trim_end().to_string();

        if buffer.trim().is_empty() {
            let trimmed = line.trim();
            if trimmed.is_empty() {
                continue;
            }
            if let Some(rest) = keyword(trimmed, "SLO") {
                default_slo = parse_slo(rest.trim_end_matches(';').trim(), lineno, default_slo)?;
                continue;
            }
            if let Some(rest) = keyword(trimmed, "STATEMENT") {
                let colon = rest
                    .find(':')
                    .ok_or_else(|| err(lineno, "STATEMENT header needs `:` on the same line"))?;
                let header = rest[..colon].trim();
                let mut parts = header.splitn(2, char::is_whitespace);
                let name = parts
                    .next()
                    .filter(|n| !n.is_empty())
                    .ok_or_else(|| err(lineno, "STATEMENT header needs a name"))?
                    .to_string();
                let slo = match parts.next().map(str::trim).filter(|s| !s.is_empty()) {
                    Some(spec) => {
                        let rest = keyword(spec, "SLO").ok_or_else(|| {
                            err(lineno, format!("unexpected STATEMENT attribute `{spec}`"))
                        })?;
                        Some(parse_slo(rest.trim(), lineno, default_slo)?)
                    }
                    None => None,
                };
                pending = Some((name, slo));
                line = rest[colon + 1..].to_string();
                if line.trim().is_empty() {
                    buffer_line = lineno; // statement begins on a later line
                    buffer.push(' '); // mark the buffer as started
                    continue;
                }
            }
            buffer_line = lineno;
        }

        buffer.push_str(&line);
        buffer.push('\n');

        // complete any semicolon-terminated statements now in the buffer
        while let Some(pos) = semicolon_outside_strings(&buffer) {
            let chunk = buffer[..pos].trim().to_string();
            buffer = buffer[pos + 1..].to_string();
            if !chunk.is_empty() {
                handle_chunk(
                    &chunk,
                    buffer_line,
                    &mut catalog,
                    &mut entries,
                    &mut ddl_count,
                    &mut pending,
                    &mut auto_name,
                    default_slo,
                )?;
            }
            buffer_line = lineno;
        }
    }

    let tail = buffer.trim().to_string();
    if !tail.is_empty() {
        handle_chunk(
            &tail,
            buffer_line,
            &mut catalog,
            &mut entries,
            &mut ddl_count,
            &mut pending,
            &mut auto_name,
            default_slo,
        )?;
    }

    Ok(Workload {
        catalog,
        entries,
        ddl_count,
    })
}

#[allow(clippy::too_many_arguments)]
fn handle_chunk(
    chunk: &str,
    line: usize,
    catalog: &mut Catalog,
    entries: &mut Vec<WorkloadEntry>,
    ddl_count: &mut usize,
    pending: &mut Option<(String, Option<SloConfig>)>,
    auto_name: &mut usize,
    default_slo: SloConfig,
) -> Result<(), WorkloadError> {
    let first = chunk
        .split_whitespace()
        .next()
        .unwrap_or_default()
        .to_ascii_uppercase();
    match first.as_str() {
        "CREATE" => {
            if pending.is_some() {
                return Err(err(line, "STATEMENT header must precede a SELECT, not DDL"));
            }
            let stmt = parse(chunk).map_err(|e| err(line, e.to_string()))?;
            apply_ddl(catalog, stmt, line)?;
            *ddl_count += 1;
            Ok(())
        }
        "SELECT" => {
            let (name, slo) = match pending.take() {
                Some((name, slo)) => (name, slo.unwrap_or(default_slo)),
                None => {
                    *auto_name += 1;
                    (format!("stmt{auto_name}"), default_slo)
                }
            };
            if entries.iter().any(|e| e.name == name) {
                return Err(err(line, format!("duplicate statement name `{name}`")));
            }
            entries.push(WorkloadEntry {
                name,
                sql: chunk.to_string(),
                line,
                slo,
            });
            Ok(())
        }
        other => Err(err(
            line,
            format!(
                "unsupported workload statement starting with `{other}` \
                 (expected CREATE TABLE, CREATE INDEX, or SELECT)"
            ),
        )),
    }
}

/// Apply DDL to a pure catalog: the registration the engine's
/// `execute_ddl` makes, enforcement indexes included, minus storage.
fn apply_ddl(catalog: &mut Catalog, stmt: Statement, line: usize) -> Result<(), WorkloadError> {
    let applied = match stmt {
        Statement::CreateTable(stmt) => catalog.create_table(stmt.into()).map(drop),
        Statement::CreateIndex(stmt) => match catalog.table(&stmt.table) {
            Some(table) => {
                let index = IndexDef::new(stmt.name, table.id, stmt.parts);
                catalog.create_index(index).map(drop)
            }
            None => Err(CatalogError::UnknownTable(stmt.table)),
        },
        _ => return Err(err(line, "only CREATE TABLE / CREATE INDEX DDL supported")),
    };
    applied.map_err(|e| err(line, e.to_string()))
}

/// `SLO <n>ms [CONFIDENCE <f>]`.
fn parse_slo(spec: &str, line: usize, base: SloConfig) -> Result<SloConfig, WorkloadError> {
    let mut out = base;
    let mut tokens = spec.split_whitespace().peekable();
    let ms = tokens
        .next()
        .ok_or_else(|| err(line, "SLO needs a value like `50ms`"))?;
    let num = ms
        .to_ascii_lowercase()
        .strip_suffix("ms")
        .and_then(|n| n.parse::<f64>().ok())
        .filter(|n| n.is_finite() && *n > 0.0)
        .ok_or_else(|| err(line, format!("bad SLO value `{ms}` (expected e.g. `50ms`)")))?;
    out.slo_ms = num;
    if let Some(tok) = tokens.next() {
        if !tok.eq_ignore_ascii_case("CONFIDENCE") {
            return Err(err(line, format!("unexpected SLO attribute `{tok}`")));
        }
        let c = tokens
            .next()
            .and_then(|v| v.parse::<f64>().ok())
            .filter(|c| (0.0..=1.0).contains(c))
            .ok_or_else(|| err(line, "CONFIDENCE needs a value in [0, 1]"))?;
        out.interval_confidence = c;
    }
    if tokens.next().is_some() {
        return Err(err(line, format!("trailing tokens in SLO spec `{spec}`")));
    }
    Ok(out)
}

/// Case-insensitive keyword match at the start of `s`; returns the rest.
fn keyword<'a>(s: &'a str, kw: &str) -> Option<&'a str> {
    if s.len() >= kw.len() && s[..kw.len()].eq_ignore_ascii_case(kw) {
        let rest = &s[kw.len()..];
        if rest.is_empty() || rest.starts_with(char::is_whitespace) {
            return Some(rest);
        }
    }
    None
}

/// Truncate a `--` comment, respecting single-quoted strings.
fn strip_comment(line: &str) -> &str {
    let bytes = line.as_bytes();
    let mut in_string = false;
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'\'' => in_string = !in_string,
            b'-' if !in_string && i + 1 < bytes.len() && bytes[i + 1] == b'-' => {
                return &line[..i];
            }
            _ => {}
        }
        i += 1;
    }
    line
}

/// Position of the first `;` outside single-quoted strings.
fn semicolon_outside_strings(s: &str) -> Option<usize> {
    let mut in_string = false;
    for (i, b) in s.bytes().enumerate() {
        match b {
            b'\'' => in_string = !in_string,
            b';' if !in_string => return Some(i),
            _ => {}
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    const WORKLOAD: &str = r#"
-- the paper's thoughtstream schema
SLO 100ms CONFIDENCE 0.9

CREATE TABLE users (username VARCHAR(24), town VARCHAR(24),
  PRIMARY KEY (username));
CREATE TABLE subs (owner VARCHAR(24), target VARCHAR(24),
  PRIMARY KEY (owner, target), CARDINALITY LIMIT 100 (owner));

STATEMENT profile SLO 25ms:
SELECT * FROM users WHERE username = <u>;

SELECT * FROM subs WHERE owner = <u>; -- auto-named
"#;

    #[test]
    fn parses_schema_directives_and_statements() {
        let w = parse_workload(WORKLOAD).expect("parses");
        assert_eq!(w.ddl_count, 2);
        assert!(w.catalog.table("users").is_some());
        assert!(w.catalog.table("subs").is_some());
        assert_eq!(w.entries.len(), 2);
        assert_eq!(w.entries[0].name, "profile");
        assert_eq!(w.entries[0].slo.slo_ms, 25.0);
        assert_eq!(
            w.entries[0].slo.interval_confidence, 0.9,
            "inherits default"
        );
        assert_eq!(w.entries[1].name, "stmt1");
        assert_eq!(w.entries[1].slo.slo_ms, 100.0);
        assert!(w.entries[1].line > w.entries[0].line);
    }

    #[test]
    fn statement_may_follow_header_on_next_line() {
        let text = "CREATE TABLE t (a VARCHAR(8), PRIMARY KEY (a));\n\
                    STATEMENT one:\nSELECT *\nFROM t WHERE a = <x>;\n";
        let w = parse_workload(text).expect("parses");
        assert_eq!(w.entries.len(), 1);
        assert!(w.entries[0].sql.contains("FROM t"));
    }

    #[test]
    fn semicolons_in_strings_do_not_split() {
        let text = "CREATE TABLE t (a VARCHAR(8), PRIMARY KEY (a));\n\
                    SELECT * FROM t WHERE a = 'x;y' LIMIT 1;\n";
        let w = parse_workload(text).expect("parses");
        assert_eq!(w.entries.len(), 1);
        assert!(w.entries[0].sql.contains("'x;y'"));
    }

    #[test]
    fn errors_carry_line_numbers() {
        let e = parse_workload("SLO nonsense\n").unwrap_err();
        assert_eq!(e.line, 1);
        let e = parse_workload("\n\nDROP TABLE x;\n").unwrap_err();
        assert_eq!(e.line, 3);
        assert!(e.message.contains("DROP"), "{e}");
        let e = parse_workload("STATEMENT missing-colon\nSELECT 1;").unwrap_err();
        assert!(e.message.contains(':'), "{e}");
    }

    #[test]
    fn duplicate_statement_names_rejected() {
        let text = "CREATE TABLE t (a VARCHAR(8), PRIMARY KEY (a));\n\
                    STATEMENT q: SELECT * FROM t WHERE a = <x>;\n\
                    STATEMENT q: SELECT * FROM t WHERE a = <y>;\n";
        let e = parse_workload(text).unwrap_err();
        assert!(e.message.contains("duplicate"), "{e}");
    }
}
