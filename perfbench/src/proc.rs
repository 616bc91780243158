//! What the process can read about itself from `/proc`.

use std::path::Path;

/// Kernel clock ticks per second in `/proc/self/stat` (USER_HZ; 100 on
/// every Linux the toolchain supports).
const TICKS_PER_S: f64 = 100.0;

/// CPU seconds (user + system) this process has used, all threads.
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    // fields after the parenthesised command name: state is field 3,
    // utime and stime are fields 14 and 15
    let rest = stat.rsplit_once(')').expect("stat has a command name").1;
    let mut fields = rest.split_ascii_whitespace().skip(11);
    let mut tick = || -> f64 {
        fields
            .next()
            .and_then(|f| f.parse().ok())
            .expect("utime/stime")
    };
    (tick() + tick()) / TICKS_PER_S
}

/// Peak resident set size so far, in MB (`VmHWM`).
pub fn rss_peak_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM");
    kb / 1024.0
}

/// File-system type holding `path`: the longest mount point that is a
/// prefix of it.
pub fn fs_type(path: &Path) -> String {
    let path = path.canonicalize().unwrap_or_else(|_| path.to_path_buf());
    let mounts = std::fs::read_to_string("/proc/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|l| {
            let mut f = l.split_ascii_whitespace();
            let (_, mount, fs) = (f.next()?, f.next()?, f.next()?);
            path.starts_with(mount)
                .then(|| (mount.len(), fs.to_string()))
        })
        .max_by_key(|(len, _)| *len)
        .map(|(_, fs)| fs)
        .unwrap_or_else(|| "unknown".into())
}

/// Directory for data files and traces: beside the build outputs, which
/// the driver keeps inside the checkout and `.gitignore` names.
pub fn scratch_dir() -> std::path::PathBuf {
    let exe = std::env::current_exe().expect("current_exe");
    // <target>/release/perfbench -> <target>/perf
    exe.parent()
        .and_then(Path::parent)
        .expect("executable sits in <target>/<profile>/")
        .join("perf")
}
