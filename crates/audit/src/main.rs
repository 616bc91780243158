//! The offline workload auditor CLI — a CI gate for PIQL workloads.
//!
//! ```text
//! piql-audit <workload.piql> [--slo-ms N] [--confidence F]
//!            [--model linear:base_us,per_row_us[,intervals]]
//!            [--json <path>] [--quiet]
//! ```
//!
//! Exit codes: `0` — every statement is bounded and SLO-feasible;
//! `1` — at least one statement is unbounded, SLO-infeasible, or invalid;
//! `2` — usage or workload-file errors.

use piql_audit::{audit_workload, parse_workload_with, LinearModelSpec, WorkloadReport};
use piql_predict::{SloConfig, SloPredictor};
use std::process::ExitCode;

struct Args {
    workload: String,
    slo: SloConfig,
    model: LinearModelSpec,
    json: Option<String>,
    quiet: bool,
}

fn usage() -> String {
    "usage: piql-audit <workload.piql> [--slo-ms N] [--confidence F] \
     [--model linear:base_us,per_row_us[,intervals]] [--json <path>|-] [--quiet]"
        .to_string()
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut slo = SloConfig::default();
    let mut model = LinearModelSpec::default();
    let mut json = None;
    let mut quiet = false;
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--slo-ms" => {
                let v = it.next().ok_or("--slo-ms needs a value")?;
                slo.slo_ms = v
                    .parse::<f64>()
                    .ok()
                    .filter(|x| x.is_finite() && *x > 0.0)
                    .ok_or_else(|| format!("bad --slo-ms value `{v}`"))?;
            }
            "--confidence" => {
                let v = it.next().ok_or("--confidence needs a value")?;
                slo.interval_confidence = v
                    .parse::<f64>()
                    .ok()
                    .filter(|x| (0.0..=1.0).contains(x))
                    .ok_or_else(|| format!("bad --confidence value `{v}`"))?;
            }
            "--model" => {
                let v = it.next().ok_or("--model needs a spec")?;
                model = LinearModelSpec::parse(v)?;
            }
            "--json" => {
                json = Some(it.next().ok_or("--json needs a path (or `-`)")?.clone());
            }
            "--quiet" => quiet = true,
            "--help" | "-h" => return Err(usage()),
            other if other.starts_with('-') => {
                return Err(format!("unknown flag `{other}`\n{}", usage()))
            }
            other => {
                if workload.replace(other.to_string()).is_some() {
                    return Err(format!("more than one workload file\n{}", usage()));
                }
            }
        }
    }
    Ok(Args {
        workload: workload.ok_or_else(usage)?,
        slo,
        model,
        json,
        quiet,
    })
}

fn run(args: &Args) -> Result<WorkloadReport, String> {
    let text = std::fs::read_to_string(&args.workload)
        .map_err(|e| format!("cannot read {}: {e}", args.workload))?;
    let workload =
        parse_workload_with(&text, args.slo).map_err(|e| format!("{}: {e}", args.workload))?;
    let predictor = SloPredictor::new(args.model.build());
    Ok(audit_workload(&args.workload, &workload, &predictor))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };
    let report = match run(&args) {
        Ok(r) => r,
        Err(msg) => {
            eprintln!("piql-audit: {msg}");
            return ExitCode::from(2);
        }
    };
    if let Some(path) = &args.json {
        let json = report.to_json().to_string();
        if path == "-" {
            println!("{json}");
        } else if let Err(e) = std::fs::write(path, json) {
            eprintln!("piql-audit: cannot write {path}: {e}");
            return ExitCode::from(2);
        }
    }
    if !args.quiet {
        print!("{}", report.render_human());
    }
    if report.gating().is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
