//! What the host says about a rep: peak memory, time on CPU, and the
//! fingerprint printed beside every result.

use std::fs;
use std::process::Command;

/// Peak resident set of this process so far, in KiB (`VmHWM`).
pub fn peak_rss_kib() -> u64 {
    let status = fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .unwrap_or(0)
}

/// Nanoseconds this process has spent on a CPU (first field of
/// `/proc/self/schedstat`); 0 where the kernel does not export it.
pub fn on_cpu_ns() -> u64 {
    fs::read_to_string("/proc/self/schedstat")
        .ok()
        .and_then(|s| s.split_whitespace().next().and_then(|v| v.parse().ok()))
        .unwrap_or(0)
}

/// One-minute load average.
pub fn loadavg() -> f64 {
    fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|s| s.split_whitespace().next().and_then(|v| v.parse().ok()))
        .unwrap_or(0.0)
}

/// Detected parallelism, kernel release and compiler version.
pub struct Fingerprint {
    pub nproc: usize,
    pub kernel: String,
    pub rustc: String,
}

pub fn fingerprint() -> Fingerprint {
    let kernel = fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "unknown".to_string());
    let rustc = Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string());
    Fingerprint {
        nproc: punch_lab::par::detected_cores(),
        kernel,
        rustc,
    }
}
