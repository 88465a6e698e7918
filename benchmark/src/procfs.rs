//! Process-level readings from `/proc/self`: CPU time, peak resident
//! set and thread count. Parsing is split from reading so it is tested
//! on fixed text. Also pins the process to one CPU.

/// Linux reports `utime`/`stime` in `USER_HZ` ticks, which is 100 on
/// every mainstream kernel configuration.
const TICK_US: u64 = 10_000;

/// `utime + stime` in microseconds from the text of `/proc/<pid>/stat`.
///
/// The command name (field 2) is parenthesised and may itself contain
/// spaces and parentheses, so fields are counted from the *last* `)`:
/// `utime` and `stime` are fields 14 and 15 of the line.
pub fn parse_stat_cpu_us(stat: &str) -> Option<u64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_ascii_whitespace();
    // `rest` starts at field 3 (state); utime is 11 fields further on.
    let utime: u64 = fields.nth(11)?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some((utime + stime) * TICK_US)
}

/// The value of a `Key:   <n> kB` or `Key:   <n>` line of
/// `/proc/<pid>/status`.
pub fn parse_status_field(status: &str, key: &str) -> Option<u64> {
    status.lines().find_map(|line| {
        let value = line.strip_prefix(key)?.strip_prefix(':')?;
        value.split_ascii_whitespace().next()?.parse().ok()
    })
}

/// CPU time this process has consumed so far, in microseconds.
pub fn cpu_us() -> u64 {
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| parse_stat_cpu_us(&s))
        .unwrap_or(0)
}

fn status_field(key: &str) -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| parse_status_field(&s, key))
        .unwrap_or(0)
}

/// Peak resident set size (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> f64 {
    status_field("VmHWM") as f64 / 1024.0
}

/// A `cpu_set_t`: 1024 CPUs, one bit each.
type CpuSet = [u64; 16];

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    fn malloc_trim(pad: usize) -> i32;
}

/// Gives the free pages of every malloc arena back to the system.
/// glibc keeps what an arena once took, and a repeat's threads inherit
/// the previous repeat's arenas in no fixed order, so without this the
/// resident set after three repeats is anywhere between one and three
/// repeats' worth.
pub fn trim_heap() {
    // SAFETY: `malloc_trim` has no preconditions.
    unsafe { malloc_trim(0) };
}

/// The highest-numbered CPU in `set`.
fn last_cpu(set: &CpuSet) -> Option<usize> {
    (0..set.len() * 64)
        .rev()
        .find(|cpu| set[cpu / 64] >> (cpu % 64) & 1 == 1)
}

/// Pins the calling thread, and so every thread spawned from it
/// afterwards, to the highest-numbered CPU it may run on (the lowest
/// takes most interrupts). Returns that CPU; `None` where the kernel
/// refuses, and the run then goes on unpinned.
pub fn pin_to_one_cpu() -> Option<usize> {
    let mut allowed: CpuSet = [0; 16];
    // SAFETY: `allowed` is writable for the `size_of_val` bytes passed,
    // and pid 0 names the calling thread.
    if unsafe { sched_getaffinity(0, std::mem::size_of_val(&allowed), allowed.as_mut_ptr()) } != 0 {
        return None;
    }
    let cpu = last_cpu(&allowed)?;
    let mut one: CpuSet = [0; 16];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is readable for the `size_of_val` bytes passed.
    let pinned = unsafe { sched_setaffinity(0, std::mem::size_of_val(&one), one.as_ptr()) } == 0;
    pinned.then_some(cpu)
}

/// OS threads alive in this process right now.
pub fn threads() -> u64 {
    status_field("Threads")
}

#[cfg(test)]
mod tests {
    use super::*;

    const STAT: &str = "4242 (infopipes (bench) x) S 1 4242 4242 0 -1 4194304 1500 0 0 0 \
                        321 45 0 0 20 0 7 0 123456 1000000 2500 18446744073709551615 1 1 0 0 0 \
                        0 0 0 0 0 0 0 17 1 0 0 0 0 0";

    #[test]
    fn stat_cpu_survives_parentheses_in_the_command_name() {
        assert_eq!(parse_stat_cpu_us(STAT), Some((321 + 45) * 10_000));
        assert_eq!(parse_stat_cpu_us("garbage"), None);
        assert_eq!(parse_stat_cpu_us("1 (x) S 1 2"), None);
    }

    #[test]
    fn status_fields_parse_with_and_without_units() {
        let status = "Name:\tbench\nVmPeak:\t  999999 kB\nVmHWM:\t   20480 kB\nThreads:\t9\n";
        assert_eq!(parse_status_field(status, "VmHWM"), Some(20480));
        assert_eq!(parse_status_field(status, "Threads"), Some(9));
        assert_eq!(parse_status_field(status, "VmRSS"), None);
        // A key that is a prefix of another must not match it.
        assert_eq!(parse_status_field("VmHWMx:\t5 kB\n", "VmHWM"), None);
    }

    #[test]
    fn the_last_allowed_cpu_is_picked() {
        let mut set: CpuSet = [0; 16];
        assert_eq!(last_cpu(&set), None);
        set[0] = 0b0110;
        assert_eq!(last_cpu(&set), Some(2));
        set[1] = 1;
        assert_eq!(last_cpu(&set), Some(64));
    }

    #[test]
    fn live_readings_are_plausible() {
        assert!(peak_rss_mb() > 0.0);
        assert!(threads() >= 1);
    }
}
