//! CPU time and resident memory of the benchmark's process tree.
//!
//! CPU comes from `getrusage` (microsecond resolution; `/proc/<pid>/stat`
//! only has 10 ms ticks, which is several percent of a paced workload's
//! total) for this process and its reaped children, and from
//! `/proc/<pid>/task/*/schedstat` for worker processes that are still
//! alive. Memory is `VmHWM` from `/proc/<pid>/status`.

use std::fs;

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("the benchmark reads /proc and declares the 64-bit Linux rusage layout");

#[repr(C)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` on 64-bit Linux: two timevals, then fourteen longs the
/// benchmark does not read.
#[repr(C)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    rest: [i64; 14],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    fn kill(pid: i32, sig: i32) -> i32;
    fn waitpid(pid: i32, status: *mut i32, options: i32) -> i32;
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const CpuSet) -> i32;
}

/// `cpu_set_t`: 1024 bits.
type CpuSet = [u64; 16];

/// Restricts the calling thread — and with it every thread and worker
/// process started from it afterwards — to one CPU, the highest-numbered
/// it may run on (the lowest takes most device interrupts). Returns that
/// CPU, or `None` when the kernel refused.
pub fn pin_to_one_cpu() -> Option<usize> {
    let mut set: CpuSet = [0; 16];
    // SAFETY: `set` is a live, writable value of the size passed; pid 0
    // names the calling thread.
    if unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut set) } != 0 {
        return None;
    }
    let word = set.iter().rposition(|&w| w != 0)?;
    let bit = 63 - set[word].leading_zeros() as usize;
    let mut one: CpuSet = [0; 16];
    one[word] = 1 << bit;
    // SAFETY: as above, and `one` is only read.
    (unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &one) } == 0)
        .then_some(word * 64 + bit)
}

const RUSAGE_SELF: i32 = 0;
const RUSAGE_CHILDREN: i32 = -1;

fn rusage_ns(who: i32) -> u64 {
    let mut ru = Rusage {
        utime: Timeval { sec: 0, usec: 0 },
        stime: Timeval { sec: 0, usec: 0 },
        rest: [0; 14],
    };
    // SAFETY: `ru` is a live, writable value with the layout glibc and
    // musl give `struct rusage` on 64-bit Linux (checked by the cfg
    // above); the call writes only inside it.
    let rc = unsafe { getrusage(who, &mut ru) };
    assert_eq!(rc, 0, "getrusage({who}) failed");
    let us = (ru.utime.sec + ru.stime.sec) * 1_000_000 + ru.utime.usec + ru.stime.usec;
    us as u64 * 1_000
}

/// CPU consumed so far by the live threads of another process.
fn live_cpu_ns(pid: u32) -> u64 {
    let Ok(tasks) = fs::read_dir(format!("/proc/{pid}/task")) else { return 0 };
    tasks
        .flatten()
        .filter_map(|t| fs::read_to_string(t.path().join("schedstat")).ok())
        .filter_map(|s| s.split_whitespace().next().and_then(|f| f.parse::<u64>().ok()))
        .sum()
}

/// Parent pid of `pid` from `/proc/<pid>/stat`. The command name may hold
/// spaces and parentheses, so fields are counted after the last `)`.
fn ppid_of(pid: u32) -> Option<u32> {
    let stat = fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    let after = &stat[stat.rfind(')')? + 1..];
    after.split_whitespace().nth(1)?.parse().ok()
}

/// Live direct children of this process.
pub fn children() -> Vec<u32> {
    let me = std::process::id();
    let Ok(dir) = fs::read_dir("/proc") else { return Vec::new() };
    let mut pids: Vec<u32> = dir
        .flatten()
        .filter_map(|e| e.file_name().to_str().and_then(|n| n.parse::<u32>().ok()))
        .filter(|&pid| ppid_of(pid) == Some(me))
        .collect();
    pids.sort_unstable();
    pids
}

/// SIGKILLs every live child of this process and waits until each has
/// ended: the watchdog's way out, when the handles that own the children
/// are held by a thread that no longer returns.
pub fn kill_children() {
    const SIGKILL: i32 = 9;
    for pid in children() {
        let mut status = 0;
        // SAFETY: `pid` names a direct child of this process, so the
        // signal cannot reach a stranger and `waitpid` may reap it;
        // `status` is a live, writable `i32`.
        unsafe {
            kill(pid as i32, SIGKILL);
            waitpid(pid as i32, &mut status, 0);
        }
    }
}

/// Peak resident set (`VmHWM`) of a process in KiB; `0` once it is gone.
fn vm_hwm_kb(pid: u32) -> u64 {
    let Ok(status) = fs::read_to_string(format!("/proc/{pid}/status")) else { return 0 };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|kb| kb.parse().ok())
        .unwrap_or(0)
}

/// CPU of the whole tree at this instant: this process (all threads,
/// exited ones included), every child that has exited and been waited
/// for, and the live children named.
pub fn tree_cpu_ns(live: &[u32]) -> u64 {
    rusage_ns(RUSAGE_SELF)
        + rusage_ns(RUSAGE_CHILDREN)
        + live.iter().map(|&p| live_cpu_ns(p)).sum::<u64>()
}

/// Steal share above which a stretch of a run is called disturbed. On the
/// machine this was sized on most windows of a quiet minute show none; at
/// 1–2 % the paced p95 is up by a quarter and at 4–6 % it has doubled
/// (see `README.md`, *Noise*).
pub const QUIET_STEAL: f64 = 0.005;

/// Clock ticks so far in which a virtual CPU of this machine was ready to
/// run and the hypervisor ran something else (`steal` in `/proc/stat`),
/// and ticks of every kind, both summed over the CPUs.
pub fn steal_ticks() -> (u64, u64) {
    let Ok(stat) = fs::read_to_string("/proc/stat") else { return (0, 0) };
    let ticks: Vec<u64> = stat
        .lines()
        .next()
        .map(|cpu| cpu.split_whitespace().skip(1).take(8).filter_map(|f| f.parse().ok()).collect())
        .unwrap_or_default();
    (ticks.get(7).copied().unwrap_or(0), ticks.iter().sum())
}

/// Share of the ticks between two [`steal_ticks`] readings that were stolen.
pub fn steal_share(from: (u64, u64), to: (u64, u64)) -> f64 {
    (to.0 - from.0) as f64 / (to.1 - from.1).max(1) as f64
}

/// Peak resident memory of this process plus the live children named, MB.
pub fn tree_peak_rss_mb(live: &[u32]) -> f64 {
    let kb = vm_hwm_kb(std::process::id()) + live.iter().map(|&p| vm_hwm_kb(p)).sum::<u64>();
    kb as f64 / 1024.0
}
