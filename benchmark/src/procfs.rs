//! Process and thread accounting read from `/proc/self`.

use std::collections::HashMap;
use std::fs;

/// Kernel clock ticks per second for `utime`/`stime` (USER_HZ; 100 on
/// every Linux ABI).
const TICKS_PER_S: f64 = 100.0;

/// `utime + stime` of a `stat` line, in seconds. The command name may
/// hold spaces and parentheses, so fields are counted after the last `)`.
fn cpu_s_of_stat(stat: &str) -> Option<f64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut f = rest.split_ascii_whitespace();
    // After the name: state is field 3, utime 14, stime 15.
    let utime: f64 = f.nth(11)?.parse().ok()?;
    let stime: f64 = f.next()?.parse().ok()?;
    Some((utime + stime) / TICKS_PER_S)
}

/// CPU seconds (user + system) this process has used, all threads.
pub fn process_cpu_s() -> f64 {
    fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| cpu_s_of_stat(&s))
        .unwrap_or(0.0)
}

fn status_kb(field: &str) -> f64 {
    let status = fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix(field))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .unwrap_or(0.0)
}

/// Peak resident set size (`VmHWM`), MiB.
pub fn peak_rss_mb() -> f64 {
    status_kb("VmHWM:") / 1024.0
}

/// One thread's counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct ThreadStat {
    pub cpu_s: f64,
    /// Voluntary plus involuntary context switches.
    pub ctx_switches: u64,
}

/// Every live thread of this process by name (reactor threads are named
/// `<node>-reactor<i>`, e.g. `S0r0-reactor0`).
pub fn threads() -> HashMap<String, ThreadStat> {
    let mut out = HashMap::new();
    let Ok(dir) = fs::read_dir("/proc/self/task") else {
        return out;
    };
    for entry in dir.flatten() {
        let p = entry.path();
        let Ok(name) = fs::read_to_string(p.join("comm")) else {
            continue; // the thread exited meanwhile
        };
        let cpu_s = fs::read_to_string(p.join("stat"))
            .ok()
            .and_then(|s| cpu_s_of_stat(&s))
            .unwrap_or(0.0);
        let ctx_switches: u64 = fs::read_to_string(p.join("status"))
            .unwrap_or_default()
            .lines()
            .filter(|l| l.contains("ctxt_switches:"))
            .filter_map(|l| l.rsplit(':').next()?.trim().parse::<u64>().ok())
            .sum();
        let t: &mut ThreadStat = out.entry(name.trim().to_string()).or_default();
        t.cpu_s += cpu_s;
        t.ctx_switches += ctx_switches;
    }
    out
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

pub fn kernel() -> String {
    fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "unknown".into())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_fields_are_counted_after_the_name() {
        let line = "42 (a b) c) S 1 1 1 0 -1 4194560 10 0 0 0 150 50 0 0 20 0 3 0 100 1 2";
        assert_eq!(cpu_s_of_stat(line), Some(2.0));
    }

    #[test]
    fn this_process_is_visible() {
        assert!(peak_rss_mb() > 0.0);
        assert!(!threads().is_empty());
    }
}
