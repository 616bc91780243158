//! The repo's benchmark. See `README.md` beside `Cargo.toml`.
//!
//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//! runs one workload in this one process: it builds the program under
//! test, starts it as an in-process `PiqlServer`, drives it over loopback
//! TCP, checks every answer, and prints every metric by name with its
//! unit; the last line of standard output is the result as one JSON
//! object. `--trace 0` prints the end-to-end metrics, `--trace 1` the
//! per-layer ones. `perfbench selfcheck` runs every workload briefly and
//! compares what is printed with what `BENCHMARK.json` declares.

mod alloc;
mod check;
mod data;
mod gen;
mod layers;
mod load;
mod proc;
mod selfcheck;
mod spec;
mod trace;

use data::Stack;
use gen::{Ids, Stream};
use spec::{Kind, Phase, Workload};
use std::collections::BTreeMap;
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

/// What a run found out.
#[derive(Default)]
pub struct Report {
    metrics: BTreeMap<&'static str, f64>,
    attempted: u64,
    failed: u64,
    /// Why the run is not correct, if it is not.
    faults: Vec<String>,
    notes: Vec<String>,
}

impl Report {
    pub fn layer(&mut self, name: &'static str, value: f64) {
        assert!(
            spec::PER_LAYER.iter().any(|(n, _)| *n == name),
            "{name} is not a declared per-layer metric"
        );
        self.metrics.insert(name, value);
    }

    fn end_to_end(&mut self, name: &'static str, value: f64) {
        assert!(
            spec::END_TO_END.iter().any(|(n, _)| *n == name),
            "{name} is not a declared end-to-end metric"
        );
        self.metrics.insert(name, value);
    }

    /// Count checked statements, with a few examples of the failures.
    pub fn tally(&mut self, ok: u64, failed: u64, examples: &[String]) {
        self.attempted += ok + failed;
        self.failed += failed;
        self.notes
            .extend(examples.iter().map(|e| format!("failure: {e}")));
    }

    pub fn fail(&mut self, why: String) {
        self.faults.push(why);
    }

    pub fn note(&mut self, note: String) {
        self.notes.push(note);
    }

    /// Print every metric by name with its unit, then the result line.
    fn print(&self, declared: &[(&'static str, &'static str)]) -> bool {
        let mut faults = self.faults.clone();
        for note in &self.notes {
            println!("# {note}");
        }
        let mut fields = Vec::new();
        for (name, unit) in declared {
            match self.metrics.get(name) {
                Some(v) if v.is_finite() => {
                    println!("{name} = {v} {unit}");
                    fields.push(format!(
                        "\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
                    ));
                }
                other => faults.push(format!("metric {name} was not measured ({other:?})")),
            }
        }
        if self.failed > 0 {
            faults.push(format!("{} statements failed", self.failed));
        }
        let correct = faults.is_empty();
        if !correct {
            // also where a caller that keeps only the error stream looks
            for note in self.notes.iter().filter(|n| n.starts_with("failure")) {
                eprintln!("perfbench: {note}");
            }
        }
        for fault in &faults {
            println!("# NOT CORRECT: {fault}");
            eprintln!("perfbench: NOT CORRECT: {fault}");
        }
        println!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted.max(1),
            self.failed,
            fields.join(", ")
        );
        correct
    }
}

/// One end-to-end phase against a served stack.
pub struct E2e {
    pub outcome: load::Outcome,
    pub stream: Stream,
    /// The requests sent, warm-up included, are the first this many of the
    /// stream (all of it unless a closed loop hit its deadline).
    pub requests_sent: usize,
    /// Their statements: what the server's own counters below counted.
    pub stmts_sent: u64,
    pub fast_point_reads: u64,
    pub wal_records: u64,
    pub fsyncs: u64,
    pub snapshots: u64,
}

fn warmup_seconds(seconds: f64) -> f64 {
    (seconds * spec::WARMUP_SHARE).min(spec::WARMUP_CAP_S)
}

/// Draw the stream for `seconds` of measurement (plus warm-up), serve
/// `stack`, and drive it as `phase` says.
pub fn e2e(
    w: &Workload,
    stack: &Stack,
    seed: u64,
    seconds: f64,
    ids: &mut Ids,
    phase: Phase,
) -> E2e {
    let (requests_per_s, open_rate) = match phase {
        Phase::Same => (w.requests_per_s, None),
        Phase::Open(rate) => (rate, Some(rate)),
        Phase::Durable { slowdown } => (w.requests_per_s / slowdown, None),
    };
    let requests = |s: f64| (requests_per_s * s).round() as usize;
    let warm = requests(warmup_seconds(seconds)).max(w.window);
    let total = warm + requests(seconds).max(w.window);
    let stream = Stream::draw(w, seed, total, ids, open_rate);

    let server = stack.serve();
    // (records, fsyncs, checkpoint generation) of the log, if there is one
    let log_counters = || {
        stack.durable.as_ref().map_or((0, 0, 0), |d| {
            let c = d.durability.wal_counters();
            (c.total_records, c.fsyncs, d.durability.generation())
        })
    };
    let fast = || {
        stack
            .registry
            .counters
            .fast_point_reads
            .load(Ordering::Relaxed)
    };
    let ((records0, fsyncs0, generation0), fast0) = (log_counters(), fast());
    let outcome = match open_rate {
        None => {
            let deadline = Duration::from_secs_f64(
                (warmup_seconds(seconds) + seconds) * spec::DEADLINE_FACTOR,
            );
            load::closed_loop(w, server.local_addr(), &stream, warm, deadline)
        }
        Some(_) => load::open_loop(w, server.local_addr(), &stream, warm),
    };
    let (records1, fsyncs1, generation1) = log_counters();
    drop(server);
    let requests_sent = match open_rate {
        // a window is a sample; windows are handed out in stream order
        None => (warm + outcome.seen.latency_ns.len() * w.window).min(stream.len()),
        Some(_) => stream.len(),
    };
    let stmts_sent = (0..requests_sent)
        .map(|i| stream.meta(i).stmts as u64)
        .sum();
    E2e {
        outcome,
        stream,
        requests_sent,
        stmts_sent,
        fast_point_reads: fast() - fast0,
        wal_records: records1 - records0,
        fsyncs: fsyncs1 - fsyncs0,
        snapshots: generation1 - generation0,
    }
}

/// A fixed piece of work — fill a buffer with a fixed pseudo-random
/// sequence and sort it; this package's code only, no allocation — and
/// how long it took. The sandbox's host runs a thread at speeds up to a
/// factor 1.5 apart and changes between them within seconds or minutes,
/// so a set-up's wall time says mostly which speed it met; divided by
/// the reference work's time right before and after it, it says what the
/// set-up costs.
fn reference_s(buf: &mut [u64]) -> f64 {
    let t = Instant::now();
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    for v in buf.iter_mut() {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        *v = x;
    }
    buf.sort_unstable();
    std::hint::black_box(&buf);
    t.elapsed().as_secs_f64()
}

fn timed_setup(w: &Workload, dir: &std::path::Path) -> (f64, Stack) {
    let t = Instant::now();
    let stack = Stack::build(w, dir, false);
    (t.elapsed().as_secs_f64(), stack)
}

/// The end-to-end run: no wrappers, nothing traced, everything in memory.
fn run(w: &Workload, seed: u64, seconds: f64) -> Report {
    let mut out = Report::default();
    let dir = proc::scratch_dir().join(format!("{}-{}", w.name, std::process::id()));
    let mut ids = Ids::new(w.kind);

    let (own_setup, stack) = timed_setup(w, &dir);
    let e = e2e(w, &stack, seed, seconds, &mut ids, Phase::Same);
    let seen = &e.outcome.seen;
    out.tally(seen.ok, seen.failed, &seen.examples);

    // ---- is the data right? (warm-up writes were acknowledged too)
    let missing = match w.kind {
        Kind::Post => check::missing_thoughts(&stack, &e.stream, e.requests_sent, 0),
        Kind::TpcwMix => check::missing_orders(&stack, &e.stream, e.requests_sent),
        Kind::PointV3 | Kind::HomeV2 => 0,
    };
    if missing > 0 {
        out.fail(format!("{missing} acknowledged writes do not read back"));
    }
    drop(stack);

    // ---- the timed set-ups, each in a fresh process (a used heap makes
    // every further one slower than the last), each between two runs of
    // the reference work that say how fast the host is at that moment
    let exe = std::env::current_exe().expect("current_exe");
    let (mut setups, mut raw) = (Vec::new(), Vec::new());
    let mut buf = vec![0u64; spec::REFERENCE_WORDS];
    reference_s(&mut buf); // touch its pages
    for _ in 0..spec::SETUP_REPEATS {
        let before = reference_s(&mut buf);
        let child = std::process::Command::new(&exe)
            .args(["setup", w.name])
            .output()
            .expect("run a set-up");
        let after = reference_s(&mut buf);
        match String::from_utf8_lossy(&child.stdout).trim().parse::<f64>() {
            Ok(s) if child.status.success() => {
                setups.push(s * spec::REFERENCE_NOMINAL_S / ((before + after) / 2.0));
                raw.push((s, before, after));
            }
            _ => out.fail("a timed set-up failed".into()),
        }
    }

    // ---- the gated metrics: counts, which do not depend on how fast the
    // host happens to run, and the set-up time
    let ok = seen.ok.max(1) as f64;
    out.end_to_end("allocs_per_stmt", e.outcome.allocs as f64 / ok);
    out.end_to_end("alloc_bytes_per_stmt", e.outcome.alloc_bytes as f64 / ok);
    out.end_to_end("rss_peak_mb", e.outcome.rss_peak_mb);
    out.end_to_end("setup_s", load::median(&setups));

    // ---- the clocks, printed but not gated here (README: noise)
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    if e.outcome.cpu_s > cores as f64 * e.outcome.wall_s * 1.01 {
        // the kernel's accounting, not the program's answers: flagged
        out.note(format!(
            "DISTURBED: {} CPU seconds in {} s on {cores} cores",
            e.outcome.cpu_s, e.outcome.wall_s
        ));
    }
    out.note(format!(
        "{} connections x window {}; cores {cores}; server dispatch_threads {} pool_threads {}; \
         this process's set-up {own_setup:.3} s; timed set-ups (s, reference before, after) \
         {raw:.3?}",
        spec::CONNECTIONS,
        w.window,
        piql_server::ServerTuning::default().dispatch_threads,
        piql_kv::LiveConfig::default().pool_threads,
    ));
    out.note(clocks(&e));
    if w.kind == Kind::PointV3 && e.fast_point_reads != e.stmts_sent {
        out.fail(format!(
            "{} of {} point reads took the fast path",
            e.fast_point_reads, e.stmts_sent
        ));
    }
    out
}

/// The time-based numbers of an end-to-end phase, for people.
pub fn clocks(e: &E2e) -> String {
    let seen = &e.outcome.seen;
    let slices = e.outcome.slices();
    let mut latency = seen.latency_ns.clone();
    latency.sort_unstable();
    let mut lag = seen.lag_ns.clone();
    lag.sort_unstable();
    let us = |sorted: &[u64], q: f64| load::quantile(sorted, q) / 1e3;
    format!(
        "median of {} slices: {:.1} stmt/s, {:.3} CPU us/stmt, latency p50 {:.1} p90 {:.1} us \
         (slice rate cv {:.3}). Whole measured part: {} OK statements in {:.3} s = {:.1}/s, \
         {:.3} CPU us each, latency p50 {:.1} p90 {:.1} p99 {:.1} max {:.1} us over {} samples; \
         send lag p50 {:.1} p90 {:.1} p99 {:.1} us; backlog at end {}; fast point reads {}; \
         wal records {}, fsyncs {}, checkpoints {}",
        slices.stmt_per_s.len(),
        load::median(&slices.stmt_per_s),
        load::median(&slices.cpu_us_per_stmt),
        load::median(&slices.p50_us),
        load::median(&slices.p90_us),
        load::cv(&slices.stmt_per_s),
        seen.ok,
        e.outcome.wall_s,
        seen.ok as f64 / e.outcome.wall_s,
        e.outcome.cpu_s * 1e6 / seen.ok.max(1) as f64,
        us(&latency, 0.5),
        us(&latency, 0.9),
        us(&latency, 0.99),
        us(&latency, 1.0),
        latency.len(),
        us(&lag, 0.5),
        us(&lag, 0.9),
        us(&lag, 0.99),
        seen.backlog,
        e.fast_point_reads,
        e.wal_records,
        e.fsyncs,
        e.snapshots,
    )
}

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: perfbench --workload <{}> --seed <u64> --seconds <n> --trace <0|1>\n       \
         perfbench selfcheck",
        spec::WORKLOADS.map(|w| w.name).join("|")
    );
    std::process::exit(2)
}

fn parse(args: &[String]) -> Args {
    let mut parsed = Args {
        workload: &spec::WORKLOADS[0],
        seed: 1,
        seconds: 20.0,
        trace: false,
    };
    let mut have_workload = false;
    for pair in args.chunks(2) {
        let [flag, value] = pair else { usage() };
        match flag.as_str() {
            "--workload" => {
                parsed.workload = spec::workload(value).unwrap_or_else(|| usage());
                have_workload = true;
            }
            "--seed" => parsed.seed = value.parse().unwrap_or_else(|_| usage()),
            "--seconds" => {
                parsed.seconds = match value.parse::<u32>() {
                    Ok(whole) if whole > 0 => whole as f64,
                    _ => usage(),
                }
            }
            "--trace" => {
                parsed.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage(),
                }
            }
            _ => usage(),
        }
    }
    if !have_workload {
        usage();
    }
    parsed
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.iter().map(String::as_str).collect::<Vec<_>>()[..] {
        ["selfcheck"] => std::process::exit(selfcheck::run()),
        // one timed set-up in a fresh process, for `setup_s`
        ["setup", name] => {
            let w = spec::workload(name).unwrap_or_else(|| usage());
            let dir = proc::scratch_dir().join(format!("setup-{}", std::process::id()));
            let (seconds, stack) = timed_setup(w, &dir);
            drop(stack);
            let _ = std::fs::remove_dir_all(&dir);
            println!("{seconds}");
            return;
        }
        _ => {}
    }
    let args = parse(&args);
    let (report, declared): (Report, &[_]) = if args.trace {
        (
            layers::run(args.workload, args.seed, args.seconds),
            &spec::PER_LAYER,
        )
    } else {
        (
            run(args.workload, args.seed, args.seconds),
            &spec::END_TO_END,
        )
    };
    let correct = report.print(declared);
    std::process::exit(if correct { 0 } else { 1 });
}
