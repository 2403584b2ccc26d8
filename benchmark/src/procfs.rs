//! Process and per-thread accounting read from `/proc/self`: the CPU,
//! memory and scheduling numbers the benchmark reports are taken from
//! outside the program, so they cost it nothing.

use std::fs;

/// Kernel clock ticks per second in `/proc/*/stat` (`USER_HZ`): 100 on
/// every Linux ABI; std offers no `sysconf` to ask.
const TICKS_PER_SECOND: f64 = 100.0;

/// The fields of one `/proc/<pid>/stat` (or `task/<tid>/stat`) line the
/// benchmark uses.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StatLine {
    /// Thread id (field 1).
    pub tid: u64,
    /// Command name (field 2), without the parentheses; the kernel
    /// truncates it to 15 bytes.
    pub comm: String,
    /// User-mode CPU in clock ticks (field 14).
    pub utime_ticks: u64,
    /// Kernel-mode CPU in clock ticks (field 15).
    pub stime_ticks: u64,
}

/// Parses a `stat` line. The command name may itself contain spaces and
/// parentheses, so the name ends at the **last** `)` of the line.
pub fn parse_stat(line: &str) -> Option<StatLine> {
    let open = line.find('(')?;
    let close = line.rfind(')')?;
    if close < open {
        return None;
    }
    let tid = line[..open].trim().parse().ok()?;
    // After the name: state is field 3, so utime (14) and stime (15) are
    // the 12th and 13th whitespace-separated tokens.
    let mut rest = line[close + 1..].split_whitespace();
    let utime_ticks = rest.nth(11)?.parse().ok()?;
    let stime_ticks = rest.next()?.parse().ok()?;
    Some(StatLine {
        tid,
        comm: line[open + 1..close].to_string(),
        utime_ticks,
        stime_ticks,
    })
}

/// CPU seconds consumed, split by mode.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Cpu {
    /// User-mode seconds.
    pub user_s: f64,
    /// Kernel-mode seconds.
    pub sys_s: f64,
}

impl Cpu {
    /// User plus kernel seconds.
    pub fn total_s(self) -> f64 {
        self.user_s + self.sys_s
    }

    /// Adds `other` to `self`, component-wise.
    pub fn add(&mut self, other: Self) {
        self.user_s += other.user_s;
        self.sys_s += other.sys_s;
    }

    /// Component-wise difference (`self` taken after `earlier`).
    pub fn since(self, earlier: Self) -> Self {
        Self {
            user_s: self.user_s - earlier.user_s,
            sys_s: self.sys_s - earlier.sys_s,
        }
    }

    fn of(stat: &StatLine) -> Self {
        Self {
            user_s: stat.utime_ticks as f64 / TICKS_PER_SECOND,
            sys_s: stat.stime_ticks as f64 / TICKS_PER_SECOND,
        }
    }
}

/// CPU of the whole process so far, exited threads included. Zero where
/// `/proc` is unavailable.
pub fn process_cpu() -> Cpu {
    fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|line| parse_stat(&line))
        .map(|stat| Cpu::of(&stat))
        .unwrap_or_default()
}

/// One live thread of this process.
#[derive(Debug, Clone, PartialEq)]
pub struct ThreadCpu {
    /// Thread id; the kernel hands them out in creation order.
    pub tid: u64,
    /// Thread name as the kernel stores it (at most 15 bytes).
    pub comm: String,
    /// CPU the thread consumed so far.
    pub cpu: Cpu,
}

/// CPU of every live thread, in thread-id (creation) order. Empty where
/// `/proc` is unavailable.
pub fn thread_cpus() -> Vec<ThreadCpu> {
    let Ok(dir) = fs::read_dir("/proc/self/task") else {
        return Vec::new();
    };
    let mut threads: Vec<ThreadCpu> = dir
        .filter_map(|entry| {
            let line = fs::read_to_string(entry.ok()?.path().join("stat")).ok()?;
            let stat = parse_stat(&line)?;
            Some(ThreadCpu {
                tid: stat.tid,
                cpu: Cpu::of(&stat),
                comm: stat.comm,
            })
        })
        .collect();
    threads.sort_by_key(|t| t.tid);
    threads
}

/// The value of a `Name:   123 kB`-style line of a `status` file.
pub fn parse_status_field(status: &str, name: &str) -> Option<u64> {
    status.lines().find_map(|line| {
        line.strip_prefix(name)?
            .strip_prefix(':')?
            .split_whitespace()
            .next()?
            .parse()
            .ok()
    })
}

/// Peak resident set of the process in kB (`VmHWM`), 0 where unavailable.
pub fn peak_rss_kb() -> u64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| parse_status_field(&status, "VmHWM"))
        .unwrap_or(0)
}

/// Involuntary context switches summed over every live thread: how often
/// the kernel took a core away from a thread that still wanted it.
pub fn involuntary_ctx_switches() -> u64 {
    let Ok(dir) = fs::read_dir("/proc/self/task") else {
        return 0;
    };
    dir.filter_map(|entry| {
        let status = fs::read_to_string(entry.ok()?.path().join("status")).ok()?;
        parse_status_field(&status, "nonvoluntary_ctxt_switches")
    })
    .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A stat line with the given command name; utime 1234, stime 567.
    fn stat_line(tid: u64, comm: &str) -> String {
        format!(
            "{tid} ({comm}) S 1 {tid} {tid} 0 -1 4194560 100 0 0 0 1234 567 0 0 20 0 5 0 \
             12345 1000000 250 18446744073709551615 1 1 0 0 0 0 0 0 0 0 0 0 17 1 0 0 0 0 0"
        )
    }

    #[test]
    fn parses_a_plain_stat_line() {
        let stat = parse_stat(&stat_line(42, "dataflasks-sock")).unwrap();
        assert_eq!(stat.tid, 42);
        assert_eq!(stat.comm, "dataflasks-sock");
        assert_eq!(stat.utime_ticks, 1234);
        assert_eq!(stat.stime_ticks, 567);
    }

    #[test]
    fn comm_may_contain_spaces_and_parentheses() {
        let stat = parse_stat(&stat_line(7, "a b) (c) S 9 9")).unwrap();
        assert_eq!(stat.comm, "a b) (c) S 9 9");
        assert_eq!((stat.utime_ticks, stat.stime_ticks), (1234, 567));
    }

    #[test]
    fn rejects_truncated_lines() {
        assert_eq!(parse_stat("42 (x) S 1 2 3"), None);
        assert_eq!(parse_stat("no parens at all"), None);
        assert_eq!(parse_stat(")42 ("), None);
    }

    #[test]
    fn reads_status_fields() {
        let status = "Name:\tx\nVmHWM:\t  324652 kB\nnonvoluntary_ctxt_switches:\t17\n";
        assert_eq!(parse_status_field(status, "VmHWM"), Some(324_652));
        assert_eq!(
            parse_status_field(status, "nonvoluntary_ctxt_switches"),
            Some(17)
        );
        assert_eq!(parse_status_field(status, "VmPeak"), None);
    }

    #[test]
    fn live_proc_is_readable_on_linux() {
        if !std::path::Path::new("/proc/self/stat").exists() {
            return;
        }
        assert!(peak_rss_kb() > 0);
        let threads = thread_cpus();
        assert!(threads
            .iter()
            .any(|t| t.tid == u64::from(std::process::id())));
        assert!(threads.windows(2).all(|w| w[0].tid < w[1].tid));
    }
}
