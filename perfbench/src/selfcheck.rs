//! `perfbench selfcheck`: does what the benchmark prints match what
//! `BENCHMARK.json` declares? Runs every workload briefly in both modes
//! (as child processes, so the real output path is what is checked).

use crate::spec;
use piql_server::json::{self, Json};
use std::collections::BTreeMap;
use std::process::Command;

type Declared = BTreeMap<String, String>;

fn named(list: Option<&Json>, value_key: &str) -> Declared {
    list.and_then(Json::as_arr)
        .unwrap_or_default()
        .iter()
        .filter_map(|entry| {
            let name = entry.get("name")?.as_str()?;
            let value = entry.get(value_key)?.as_str()?;
            Some((name.to_string(), value.to_string()))
        })
        .collect()
}

fn in_code(list: &[(&str, &str)]) -> Declared {
    list.iter()
        .map(|(n, u)| (n.to_string(), u.to_string()))
        .collect()
}

/// The metrics of a run's result line, as name -> unit.
fn printed(stdout: &str) -> Result<Declared, String> {
    let last = stdout.lines().last().ok_or("no output")?;
    let result = json::parse(last).map_err(|e| format!("result line is not JSON: {e}"))?;
    for key in ["correct", "attempted", "failed", "metrics"] {
        if result.get(key).is_none() {
            return Err(format!("result line has no '{key}'"));
        }
    }
    if result.get("correct").and_then(Json::as_bool) != Some(true) {
        return Err(format!("run is not correct: {last}"));
    }
    let Some(Json::Obj(metrics)) = result.get("metrics") else {
        return Err("'metrics' is not an object".into());
    };
    metrics
        .iter()
        .map(|(name, m)| {
            let unit = m.get("unit").and_then(Json::as_str);
            match (unit, m.get("value").and_then(Json::as_f64)) {
                (Some(unit), Some(_)) => Ok((name.to_string(), unit.to_string())),
                _ => Err(format!("metric {name} lacks a value or unit")),
            }
        })
        .collect()
}

/// Exit code: 0 when everything agrees.
pub fn run() -> i32 {
    let text = match std::fs::read_to_string("BENCHMARK.json") {
        Ok(text) => text,
        Err(e) => {
            eprintln!("selfcheck runs from the repo root: BENCHMARK.json: {e}");
            return 2;
        }
    };
    let declared = json::parse(&text).expect("BENCHMARK.json is JSON");
    let mut problems = Vec::new();
    // `named` sorts by name
    let workloads = named(declared.get("workloads"), "why");
    let mut ours: Vec<&str> = spec::WORKLOADS.iter().map(|w| w.name).collect();
    ours.sort_unstable();
    if workloads.keys().map(String::as_str).collect::<Vec<_>>() != ours {
        problems.push(format!(
            "workloads differ: {:?} vs {ours:?}",
            workloads.keys()
        ));
    }
    let modes = [
        (
            "0",
            named(declared.get("end_to_end"), "unit"),
            in_code(&spec::END_TO_END),
        ),
        (
            "1",
            named(declared.get("per_layer"), "unit"),
            in_code(&spec::PER_LAYER),
        ),
    ];
    let exe = std::env::current_exe().expect("current_exe");
    for (trace, declared, coded) in &modes {
        if declared != coded {
            problems.push(format!(
                "--trace {trace}: BENCHMARK.json and spec.rs differ"
            ));
        }
        for w in &spec::WORKLOADS {
            let output = Command::new(&exe)
                .args(["--workload", w.name, "--seed", "1", "--seconds", "1"])
                .args(["--trace", trace])
                .output()
                .expect("run perfbench");
            let stdout = String::from_utf8_lossy(&output.stdout);
            match printed(&stdout) {
                Ok(metrics) if &metrics == declared => {
                    println!("ok   {} --trace {trace}: {} metrics", w.name, metrics.len())
                }
                Ok(metrics) => problems.push(format!(
                    "{} --trace {trace}: printed {:?}, declared {:?}",
                    w.name,
                    metrics
                        .keys()
                        .filter(|k| !declared.contains_key(*k))
                        .collect::<Vec<_>>(),
                    declared
                        .keys()
                        .filter(|k| !metrics.contains_key(*k))
                        .collect::<Vec<_>>(),
                )),
                Err(e) => problems.push(format!("{} --trace {trace}: {e}", w.name)),
            }
        }
    }
    for p in &problems {
        println!("FAIL {p}");
    }
    problems.len().min(1) as i32
}
