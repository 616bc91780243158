//! Workspace lint gate: `cargo run -p piql-analysis --bin lint [root]`.
//!
//! Runs every rule of [`piql_analysis::lint`] over `crates/*/src/**` (the
//! rest of the repository is read as users of what those sources define).
//! Exits non-zero on any finding.

use std::path::PathBuf;
use std::process::ExitCode;

use piql_analysis::lint;

fn main() -> ExitCode {
    let root = std::env::args()
        .nth(1)
        .map(PathBuf::from)
        .unwrap_or_else(|| {
            // Compiled-in manifest dir: crates/analysis → workspace root.
            PathBuf::from(env!("CARGO_MANIFEST_DIR"))
                .join("../..")
                .canonicalize()
                .expect("workspace root resolvable")
        });

    let report = match lint::lint_workspace(&root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("lint: failed to scan {}: {e}", root.display());
            return ExitCode::FAILURE;
        }
    };

    for finding in &report.findings {
        println!("{finding}");
    }
    if report.findings.is_empty() {
        println!("lint: {} files scanned, 0 violations", report.files_scanned);
        ExitCode::SUCCESS
    } else {
        println!(
            "lint: {} files scanned, {} violation(s)",
            report.files_scanned,
            report.findings.len()
        );
        ExitCode::FAILURE
    }
}
