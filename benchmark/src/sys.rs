//! What the benchmark asks the operating system: which CPUs it may
//! use, pinning to one of them, process CPU time and peak memory.
//!
//! The two `extern "C"` calls below are the benchmark's only unsafe
//! code; both symbols come from the libc that `std` already links, so
//! no crate is needed.

use std::io;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

/// Linux `CLOCK_PROCESS_CPUTIME_ID`: user+sys time of every thread of
/// the process, in nanoseconds (the `utime+stime` of `/proc/self/stat`
/// without its 10 ms tick).
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// Words in the kernel's default `cpu_set_t` (1024 bits).
const CPU_SET_WORDS: usize = 16;

extern "C" {
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    fn clock_gettime(clockid: i32, ts: *mut Timespec) -> i32;
}

/// Pin the calling thread — and every thread it spawns afterwards — to
/// one CPU.
pub fn pin_to_cpu(cpu: usize) -> io::Result<()> {
    if cpu >= CPU_SET_WORDS * 64 {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            "cpu index beyond cpu_set_t",
        ));
    }
    let mut mask = [0u64; CPU_SET_WORDS];
    mask[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `mask` is a live, properly aligned array of exactly the
    // byte length passed; pid 0 names the calling thread; the kernel
    // only reads the mask.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
    if rc == 0 {
        Ok(())
    } else {
        Err(io::Error::last_os_error())
    }
}

/// CPU time (user + system, all threads) the process has used so far.
pub fn process_cpu_ns() -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live `timespec`-layout struct (two 64-bit
    // fields on every 64-bit Linux target) the kernel writes into.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(
        rc, 0,
        "CLOCK_PROCESS_CPUTIME_ID is always readable on Linux"
    );
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// One `Key:\tvalue` line of `/proc/self/status`.
fn status_field(key: &str) -> Option<String> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status.lines().find_map(|line| {
        let rest = line.strip_prefix(key)?.strip_prefix(':')?;
        Some(rest.trim().to_string())
    })
}

/// Parse a kernel CPU list such as `0-3,8,10-11`.
pub fn parse_cpu_list(list: &str) -> Vec<usize> {
    let mut cpus = Vec::new();
    for part in list.split(',').map(str::trim).filter(|p| !p.is_empty()) {
        let (lo, hi) = part.split_once('-').unwrap_or((part, part));
        if let (Ok(lo), Ok(hi)) = (lo.parse::<usize>(), hi.parse::<usize>()) {
            cpus.extend(lo..=hi);
        }
    }
    cpus
}

/// The CPUs this process may run on (`Cpus_allowed_list`).
pub fn allowed_cpus() -> Vec<usize> {
    status_field("Cpus_allowed_list")
        .map(|l| parse_cpu_list(&l))
        .unwrap_or_default()
}

/// Peak resident set size of the process so far (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    status_field("VmHWM")
        .and_then(|v| v.split_whitespace().next()?.parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_lists_parse() {
        assert_eq!(parse_cpu_list("0-1"), vec![0, 1]);
        assert_eq!(parse_cpu_list("0-2,8,10-11"), vec![0, 1, 2, 8, 10, 11]);
        assert_eq!(parse_cpu_list("5"), vec![5]);
        assert!(parse_cpu_list("").is_empty());
    }

    #[test]
    fn cpu_clock_advances_and_rss_is_positive() {
        let a = process_cpu_ns();
        let mut x = 0u64;
        for i in 0..2_000_000u64 {
            x = x.wrapping_mul(31).wrapping_add(std::hint::black_box(i));
        }
        std::hint::black_box(x);
        assert!(process_cpu_ns() > a);
        assert!(peak_rss_mib() > 0.0);
        assert!(!allowed_cpus().is_empty());
    }
}
