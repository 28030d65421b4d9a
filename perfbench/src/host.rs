//! Host facts printed with every result, so thread or fsync effects on
//! a small host or a memory-backed filesystem are not read as speed-ups.

use std::path::Path;

/// Cores the process may use.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Filesystem type of the mount holding `path` (from `/proc/mounts`:
/// the longest mount point that prefixes the canonical path).
pub fn fs_type(path: &Path) -> String {
    let Ok(path) = path.canonicalize() else {
        return "unknown".to_string();
    };
    let Ok(mounts) = std::fs::read_to_string("/proc/mounts") else {
        return "unknown".to_string();
    };
    mounts
        .lines()
        .filter_map(|line| {
            let mut f = line.split_whitespace();
            let _device = f.next()?;
            let mount = f.next()?.replace("\\040", " ");
            let fstype = f.next()?;
            path.starts_with(&mount).then_some((mount.len(), fstype))
        })
        .max_by_key(|&(len, _)| len)
        .map_or_else(|| "unknown".to_string(), |(_, t)| t.to_string())
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn host_facts_are_readable() {
        assert!(nproc() >= 1);
        assert_ne!(fs_type(Path::new("/")), "");
        if Path::new("/proc/self/status").exists() {
            assert!(peak_rss_mb().unwrap() > 0.0);
        }
    }
}
