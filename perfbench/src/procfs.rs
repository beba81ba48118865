//! Memory and per-thread CPU of a process, read from Linux `/proc`, and the
//! calling process's own CPU clock.

use std::path::Path;

/// A `kB` field of a `/proc/<pid>/status` document (`VmHWM`, `VmRSS`, …),
/// in bytes.
pub fn status_kb_field(status: &str, field: &str) -> Option<u64> {
    status.lines().find_map(|line| {
        let rest = line.strip_prefix(field)?.strip_prefix(':')?;
        let mut parts = rest.split_whitespace();
        let kb: u64 = parts.next()?.parse().ok()?;
        (parts.next() == Some("kB")).then_some(kb * 1024)
    })
}

/// Peak resident set (`VmHWM`) of process `pid`, in bytes.
pub fn peak_rss_bytes(pid: u32) -> Option<u64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    status_kb_field(&status, "VmHWM")
}

/// Resident set (`VmRSS`) of process `pid` now, in bytes.
pub fn rss_bytes(pid: u32) -> Option<u64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    status_kb_field(&status, "VmRSS")
}

/// CPU time in nanoseconds from a `schedstat` line (first field: time spent
/// on a CPU, user and system together).
pub fn schedstat_cpu_ns(schedstat: &str) -> Option<u64> {
    schedstat.split_whitespace().next()?.parse().ok()
}

/// CPU time in nanoseconds from a `stat` line (`utime + stime` in clock
/// ticks of 10 ms). The command name is parenthesised and may contain
/// spaces, so fields are counted after the last `)`.
pub fn stat_cpu_ns(stat: &str) -> Option<u64> {
    let after = &stat[stat.rfind(')')? + 1..];
    let fields: Vec<&str> = after.split_whitespace().collect();
    // After the name: state is field 3, utime field 14, stime field 15.
    let utime: u64 = fields.get(11)?.parse().ok()?;
    let stime: u64 = fields.get(12)?.parse().ok()?;
    Some((utime + stime) * 10_000_000)
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

/// CPU time of the calling process over its whole life, every thread
/// included, exited ones too, in nanoseconds (`CLOCK_PROCESS_CPUTIME_ID`).
/// Time the hypervisor stole is not in it.
pub fn own_cpu_ns() -> Option<u64> {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, properly laid out `struct timespec` for the
    // whole call, and the clock id is a valid Linux clock.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    (rc == 0).then(|| ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64)
}

/// One thread of a process: its name (`comm`, at most 15 bytes) and the CPU
/// time it has used so far.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ThreadCpu {
    /// Thread name as the kernel keeps it.
    pub name: String,
    /// CPU time used, nanoseconds.
    pub cpu_ns: u64,
}

/// Every live thread of `pid` with its CPU time; nanosecond `schedstat`
/// where the kernel provides it, 10 ms `stat` ticks otherwise.
pub fn threads(pid: u32) -> Vec<ThreadCpu> {
    let dir = format!("/proc/{pid}/task");
    let Ok(entries) = std::fs::read_dir(&dir) else {
        return Vec::new();
    };
    entries
        .filter_map(|e| {
            let task = e.ok()?.path();
            let read = |f: &str| std::fs::read_to_string(Path::new(&task).join(f)).ok();
            let name = read("comm")?.trim_end().to_string();
            let cpu_ns = read("schedstat")
                .and_then(|s| schedstat_cpu_ns(&s))
                .or_else(|| read("stat").and_then(|s| stat_cpu_ns(&s)))?;
            Some(ThreadCpu { name, cpu_ns })
        })
        .collect()
}

/// Total CPU of the threads whose name starts with `prefix` (`""` = all).
pub fn cpu_ns(threads: &[ThreadCpu], prefix: &str) -> u64 {
    threads
        .iter()
        .filter(|t| t.name.starts_with(prefix))
        .map(|t| t.cpu_ns)
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    const STATUS: &str = "Name:\tesp-serve\nVmPeak:\t  120000 kB\nVmHWM:\t   17236 kB\nVmRSS:\t   16000 kB\nThreads:\t4\n";

    #[test]
    fn status_fields_parse_to_bytes() {
        assert_eq!(status_kb_field(STATUS, "VmHWM"), Some(17236 * 1024));
        assert_eq!(status_kb_field(STATUS, "VmRSS"), Some(16000 * 1024));
        assert_eq!(status_kb_field(STATUS, "VmSwap"), None);
        // A field whose name is a prefix of another must not match it.
        assert_eq!(status_kb_field(STATUS, "Vm"), None);
        assert_eq!(status_kb_field("Threads:\t4\n", "Threads"), None);
    }

    #[test]
    fn schedstat_first_field_is_cpu_ns() {
        assert_eq!(schedstat_cpu_ns("368057170 321372 20\n"), Some(368_057_170));
        assert_eq!(schedstat_cpu_ns(""), None);
    }

    #[test]
    fn stat_counts_fields_after_the_name() {
        // A thread name with a space and a parenthesis must not shift fields.
        let stat =
            "4242 (esp-serve (x) y) S 1 4242 4242 0 -1 4194560 190 0 0 0 34 7 0 0 20 0 4 0 123 0 0";
        assert_eq!(stat_cpu_ns(stat), Some((34 + 7) * 10_000_000));
        assert_eq!(stat_cpu_ns("garbage"), None);
    }

    #[test]
    fn cpu_sums_by_name_prefix() {
        let t = vec![
            ThreadCpu {
                name: "esp-serve-react".into(),
                cpu_ns: 5,
            },
            ThreadCpu {
                name: "esp-serve-shard".into(),
                cpu_ns: 7,
            },
            ThreadCpu {
                name: "esp-serve-shard".into(),
                cpu_ns: 11,
            },
            ThreadCpu {
                name: "esp-serve".into(),
                cpu_ns: 1,
            },
        ];
        assert_eq!(cpu_ns(&t, "esp-serve-shard"), 18);
        assert_eq!(cpu_ns(&t, "esp-serve-react"), 5);
        assert_eq!(cpu_ns(&t, ""), 24);
    }

    #[test]
    fn live_process_is_readable() {
        let pid = std::process::id();
        assert!(peak_rss_bytes(pid).unwrap_or(0) >= rss_bytes(pid).unwrap_or(u64::MAX));
        let me = threads(pid);
        assert!(!me.is_empty());
        assert!(cpu_ns(&me, "") > 0);
    }

    #[test]
    fn own_cpu_clock_counts_exited_threads() {
        let before = own_cpu_ns().unwrap();
        std::thread::spawn(|| {
            let t = std::time::Instant::now();
            while t.elapsed() < std::time::Duration::from_millis(30) {
                std::hint::black_box(0);
            }
        })
        .join()
        .unwrap();
        assert!(own_cpu_ns().unwrap() - before >= 20_000_000);
    }
}
