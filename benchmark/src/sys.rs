//! Process and machine facts read from `/proc` (Linux).

/// Peak resident set size (`VmHWM`) of a process (this one for
/// `None`), in MiB.
pub fn peak_rss_mb(pid: Option<u32>) -> Option<f64> {
    let path = pid.map_or_else(
        || "/proc/self/status".to_string(),
        |p| format!("/proc/{p}/status"),
    );
    let status = std::fs::read_to_string(path).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Hardware threads this process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// The CPU's model name from `/proc/cpuinfo`.
pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// SIMD features this build was compiled for (evidence that the
/// repository's `target-cpu=native` setting reached the benchmark).
pub fn cpu_features() -> String {
    let feats: Vec<&str> = [
        (cfg!(target_feature = "sse4.2"), "sse4.2"),
        (cfg!(target_feature = "avx"), "avx"),
        (cfg!(target_feature = "avx2"), "avx2"),
        (cfg!(target_feature = "fma"), "fma"),
        (cfg!(target_feature = "avx512f"), "avx512f"),
        (cfg!(target_feature = "neon"), "neon"),
    ]
    .iter()
    .filter(|(on, _)| *on)
    .map(|(_, name)| *name)
    .collect();
    if feats.is_empty() {
        "baseline".to_string()
    } else {
        feats.join("+")
    }
}
