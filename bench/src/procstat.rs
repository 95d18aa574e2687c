//! CPU time and peak memory of the driver and its live children, read
//! std-only from `/proc` (the offline toolchain has no libc crate).

use std::fs;

/// Kernel clock ticks per second as exposed in `/proc/<pid>/stat`.
/// `USER_HZ` is 100 on every Linux ABI; without libc there is no
/// `sysconf(_SC_CLK_TCK)` to ask.
const USER_HZ: f64 = 100.0;

/// Parses `/proc/<pid>/stat` into `(ppid, utime + stime ticks)`. The
/// command name may hold spaces and parentheses, so fields are counted
/// from the last `)`.
fn parse_stat(text: &str) -> Option<(u32, u64)> {
    let rest = &text[text.rfind(')')? + 1..];
    let mut fields = rest.split_whitespace();
    // after the name: state(3) ppid(4) ... utime(14) stime(15)
    let ppid = fields.nth(1)?.parse().ok()?;
    let utime: u64 = fields.nth(9)?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some((ppid, utime + stime))
}

fn read_stat(pid: u32) -> Option<(u32, u64)> {
    parse_stat(&fs::read_to_string(format!("/proc/{pid}/stat")).ok()?)
}

/// Pids of the live processes whose parent is this process.
pub fn children() -> Vec<u32> {
    let me = std::process::id();
    let Ok(dir) = fs::read_dir("/proc") else { return Vec::new() };
    dir.filter_map(|e| e.ok()?.file_name().to_str()?.parse::<u32>().ok())
        .filter(|&pid| read_stat(pid).is_some_and(|(ppid, _)| ppid == me))
        .collect()
}

/// User + system CPU milliseconds consumed so far by this process and its
/// live children. Differences between two calls attribute CPU to the
/// interval as long as no child exits in between.
pub fn cpu_ms() -> f64 {
    let own = read_stat(std::process::id()).map_or(0, |(_, t)| t);
    let kids: u64 = children().into_iter().filter_map(read_stat).map(|(_, t)| t).sum();
    (own + kids) as f64 * 1000.0 / USER_HZ
}

/// `VmHWM` (peak resident set) of one process in MiB.
fn vm_hwm_mb(pid: u32) -> Option<f64> {
    let status = fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Peak resident memory: the driver's high-water mark plus the largest
/// high-water mark among its live children.
pub fn peak_rss_mb() -> f64 {
    let own = vm_hwm_mb(std::process::id()).unwrap_or(0.0);
    let kids = children().into_iter().filter_map(vm_hwm_mb).fold(0.0, f64::max);
    own + kids
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_parser_survives_hostile_command_names() {
        let line = "42 (a b) c)) S 7 42 42 0 -1 4194304 100 0 0 0 13 29 0 0 20 0 3 0 100 0 0";
        assert_eq!(parse_stat(line), Some((7, 42)));
        assert_eq!(parse_stat("garbage"), None);
    }

    #[test]
    fn own_process_is_readable() {
        assert!(peak_rss_mb() > 0.0);
        let before = cpu_ms();
        let mut x = 0u64;
        for i in 0..50_000_000u64 {
            x = x.wrapping_add(std::hint::black_box(i));
        }
        std::hint::black_box(x);
        assert!(cpu_ms() >= before);
    }
}
