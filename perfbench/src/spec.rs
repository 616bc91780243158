//! What the benchmark measures: the four workloads, their frozen sizing
//! constants, and the metric names `BENCHMARK.json` declares. `selfcheck`
//! fails if this file and `BENCHMARK.json` disagree.

/// Client connections, one load thread each (the open loop adds a paced
/// sender per connection), for the sandbox's two cores. The server keeps
/// its own default pool widths, echoed in the output.
pub const CONNECTIONS: usize = 2;

/// Share of `--seconds` spent on the discarded warm-up, capped in seconds.
pub const WARMUP_SHARE: f64 = 0.15;
pub const WARMUP_CAP_S: f64 = 3.0;

/// A closed loop stops at this multiple of `--seconds` even if its fixed
/// statement count is not done (a much slower machine or commit), so a
/// run can never reach the driver's time limit.
pub const DEADLINE_FACTOR: f64 = 2.0;

/// Timed set-ups per run; `setup_s` is the median of their times, each
/// scaled by [`REFERENCE_NOMINAL_S`] over what the reference work took
/// right before and after it.
pub const SETUP_REPEATS: usize = 7;

/// Words the reference work sorts, and what that takes on this sandbox
/// at its usual, faster speed, measured once and frozen: a set-up that
/// meets the host at that speed reports its wall time unchanged.
pub const REFERENCE_WORDS: usize = 4_000_000;
pub const REFERENCE_NOMINAL_S: f64 = 0.096;

/// Zipf exponent of key popularity (YCSB's default).
pub const ZIPF_THETA: f64 = 0.99;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    PointV3,
    HomeV2,
    Post,
    TpcwMix,
}

/// The end-to-end phase of a traced run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Phase {
    /// The same closed loop, for half as long.
    Same,
    /// An open loop: Poisson arrivals at this fixed rate (requests/s),
    /// whatever the server does.
    Open(f64),
    /// The same closed loop on the durable stack (`open_durable`, group
    /// commit, log in the checkout), which is this many times slower.
    Durable { slowdown: f64 },
}

#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub kind: Kind,
    /// Closed loop: each connection keeps one window of this many requests
    /// in flight — write the window, read all its responses, repeat.
    pub window: usize,
    /// Requests per second of `--seconds`, measured once on the seed commit
    /// and frozen, so the work is fixed (final data size, RSS and
    /// allocation counts repeat run to run and commit to commit) and the
    /// seed commit measures for at most about `--seconds`.
    pub requests_per_s: f64,
    /// How the traced run's end-to-end phase differs from the run above.
    pub traced_phase: Phase,
    /// Requests the traced run replays through each entry point.
    pub trace_requests: usize,
    /// Fixed latency limit of one sample, for `loadgen.slo_miss_ratio`.
    pub slo_limit_us: f64,
}

/// SCADr data: users × thoughts × subscriptions.
pub const SCADR_USERS: usize = 20_000;
pub const SCADR_THOUGHTS_PER_USER: usize = 10;
pub const SCADR_SUBSCRIPTIONS_PER_USER: usize = 10;
/// TPC-W data: the paper's 10 k items; customers sized so one set-up
/// takes about as long as SCADr's.
pub const TPCW_ITEMS: usize = 10_000;
pub const TPCW_CUSTOMERS: usize = 40_000;

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "point_v3",
        kind: Kind::PointV3,
        window: 16,
        requests_per_s: 800_000.0,
        traced_phase: Phase::Same,
        trace_requests: 20_000,
        slo_limit_us: 100.0,
    },
    Workload {
        name: "home_v2",
        kind: Kind::HomeV2,
        window: 4,
        requests_per_s: 3_500.0,
        traced_phase: Phase::Same,
        trace_requests: 5_000,
        slo_limit_us: 5_000.0,
    },
    Workload {
        name: "post_v3",
        kind: Kind::Post,
        window: 16,
        requests_per_s: 60_000.0,
        traced_phase: Phase::Durable { slowdown: 12.0 },
        trace_requests: 1_000,
        slo_limit_us: 15_000.0,
    },
    Workload {
        name: "tpcw_mix",
        kind: Kind::TpcwMix,
        window: 4,
        requests_per_s: 3_600.0,
        traced_phase: Phase::Open(1_500.0),
        trace_requests: 5_000,
        slo_limit_us: 3_000.0,
    },
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// End-to-end metrics `(name, unit)`, printed with `--trace 0`.
pub const END_TO_END: [(&str, &str); 4] = [
    ("allocs_per_stmt", "count"),
    ("alloc_bytes_per_stmt", "B"),
    ("rss_peak_mb", "MB"),
    ("setup_s", "s"),
];

/// Per-layer metrics `(name, unit)`, printed with `--trace 1`. Times are
/// per statement unless the name says otherwise; README.md says how each
/// is measured and which end-to-end metric it should move.
pub const PER_LAYER: [(&str, &str); 44] = [
    ("loadgen.throughput_stmt_s", "1/s"),
    ("loadgen.latency_p50_us", "us"),
    ("loadgen.cpu_us_per_stmt", "us"),
    ("server.codec_req_decode_ns", "ns"),
    ("server.codec_resp_encode_ns", "ns"),
    ("server.codec_resp_bytes", "B"),
    ("server.handle_ns", "ns"),
    ("server.handle_traced_ns", "ns"),
    ("server.transport_ns", "ns"),
    ("server.registry_exec_ns", "ns"),
    ("server.prepare_us", "us"),
    ("server.stats_us", "us"),
    ("server.fast_point_ratio", "ratio"),
    ("engine.exec_ns", "ns"),
    ("engine.dml_ns", "ns"),
    ("engine.kv_requests_per_stmt", "count"),
    ("engine.kv_rounds_per_stmt", "count"),
    ("engine.entries_per_row", "ratio"),
    ("engine.bound_utilisation", "ratio"),
    ("core.parse_ns", "ns"),
    ("core.compile_us", "us"),
    ("predict.predict_us", "us"),
    ("kv.point_get_ns", "ns"),
    ("kv.round1_get_ns", "ns"),
    ("kv.round8_get_ns", "ns"),
    ("kv.range10_ns", "ns"),
    ("kv.put_ns", "ns"),
    ("kv.span_ns_per_stmt", "ns"),
    ("kv.physical_per_logical", "ratio"),
    ("kv.pool_worker_task_ratio", "ratio"),
    ("durability.append_ns", "ns"),
    ("durability.commit_us", "us"),
    ("durability.put_durable_us", "us"),
    ("durability.wal_records_per_stmt", "count"),
    ("durability.fsyncs_per_stmt", "ratio"),
    ("durability.snapshots", "count"),
    ("durability.recovery_ms", "ms"),
    ("loadgen.latency_p90_us", "us"),
    ("loadgen.latency_p99_us", "us"),
    ("loadgen.latency_max_us", "us"),
    ("loadgen.slice_rate_cv", "ratio"),
    ("loadgen.send_lag_p99_us", "us"),
    ("loadgen.slo_miss_ratio", "ratio"),
    ("loadgen.backlog_end", "count"),
];
