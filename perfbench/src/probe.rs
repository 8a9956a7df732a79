//! Resource probes read from outside the library: the process's memory
//! high-water mark and write volume from `/proc/self`, and the bytes a
//! directory tree holds.

use std::fs;
use std::io;
use std::path::Path;

/// Reads one `key: value ...` field of a `/proc/self` file as a number.
fn proc_field(file: &str, key: &str) -> io::Result<u64> {
    let text = fs::read_to_string(file)?;
    text.lines()
        .find_map(|line| {
            let rest = line.strip_prefix(key)?.strip_prefix(':')?;
            rest.split_whitespace().next()?.parse().ok()
        })
        .ok_or_else(|| io::Error::other(format!("{file} has no {key} field")))
}

/// A measurement window for the resident memory that the calls made inside
/// it add. Opening resets the process's high-water mark (`VmHWM`) to its
/// current resident size, so what the benchmark already holds (the oracle,
/// the edge list, earlier peaks) is left out of [`MemWindow::close`].
pub struct MemWindow {
    rss_at_open: u64,
}

impl MemWindow {
    pub fn open() -> io::Result<MemWindow> {
        // "5" resets the peak RSS (proc(5), `clear_refs`).
        fs::write("/proc/self/clear_refs", "5")?;
        Ok(MemWindow {
            rss_at_open: proc_field("/proc/self/status", "VmRSS")? * 1024,
        })
    }

    /// Bytes by which the high-water mark rose above the resident size at
    /// open.
    pub fn close(self) -> io::Result<u64> {
        let peak = proc_field("/proc/self/status", "VmHWM")? * 1024;
        Ok(peak.saturating_sub(self.rss_at_open))
    }
}

/// Bytes this process has passed to `write`-family calls (`wchar`): the
/// whole-file copies and journal appends the page counters do not see.
pub fn wchar_bytes() -> io::Result<u64> {
    proc_field("/proc/self/io", "wchar")
}

/// Bytes of regular files under `root` (0 when it does not exist). Files
/// that vanish mid-walk are skipped: the walk races the sorts deleting runs.
pub fn dir_bytes(root: &Path) -> u64 {
    let Ok(entries) = fs::read_dir(root) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.file_type() {
            Ok(t) if t.is_dir() => dir_bytes(&e.path()),
            Ok(_) => e.metadata().map(|m| m.len()).unwrap_or(0),
            Err(_) => 0,
        })
        .sum()
}
