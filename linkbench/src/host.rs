//! Host facts recorded with every run, and process memory readings.

/// Usable cores: `available_parallelism` capped by a cgroup v2 CPU quota.
pub fn effective_cores() -> usize {
    let available = std::thread::available_parallelism().map_or(1, |n| n.get());
    let quota = std::fs::read_to_string("/sys/fs/cgroup/cpu.max").ok().and_then(|s| {
        let mut parts = s.split_whitespace();
        let quota: f64 = parts.next()?.parse().ok()?;
        let period: f64 = parts.next()?.parse().ok()?;
        (period > 0.0 && quota > 0.0).then_some(quota / period)
    });
    quota.map_or(available, |q| (q.ceil() as usize).min(available)).max(1)
}

/// The 1-, 5- and 15-minute load averages, if readable.
pub fn load_average() -> Option<[f64; 3]> {
    let s = std::fs::read_to_string("/proc/loadavg").ok()?;
    let mut it = s.split_whitespace().map(|x| x.parse::<f64>());
    Some([it.next()?.ok()?, it.next()?.ok()?, it.next()?.ok()?])
}

/// Peak resident set size (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Resets `VmHWM` to the current RSS so the next reading covers only what
/// follows. Returns false where the kernel forbids it.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// One line describing the host, for the run log.
pub fn describe() -> String {
    let load = load_average()
        .map_or("unknown".to_string(), |l| format!("{:.2} {:.2} {:.2}", l[0], l[1], l[2]));
    format!("host: effective_cores={} load_average={load}", effective_cores())
}
