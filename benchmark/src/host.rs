//! Host fingerprint and process accounting, read from `/proc` (the
//! workspace is offline: no `libc`, no `sysinfo`).

use std::path::Path;
use std::process::Command;

/// What every result is stamped with, so two result files can be told
/// apart before their numbers are compared.
#[derive(Clone, Debug)]
pub struct Host {
    pub cores: usize,
    /// Filesystem type under the work directory (`tmpfs`, `ext4`, …).
    pub storage_fs: String,
    /// `tmpfs` when fsync is a no-op there, else `block`.
    pub storage_kind: &'static str,
    pub profile: &'static str,
    /// `pinned: engine cpu 0, harness cpu 1`, or why not.
    pub placement: String,
    pub rustc: String,
    pub git_sha: String,
}

impl Host {
    /// Fingerprint the host as seen from `work_dir` (which must exist).
    pub fn probe(work_dir: &Path, placement: &str) -> Self {
        let storage_fs = fs_type(work_dir).unwrap_or_else(|| "unknown".into());
        let storage_kind =
            if matches!(storage_fs.as_str(), "tmpfs" | "ramfs") { "tmpfs" } else { "block" };
        Self {
            cores: online_cpus(),
            storage_fs,
            storage_kind,
            profile: if cfg!(debug_assertions) { "debug" } else { "release" },
            placement: placement.to_string(),
            rustc: command_line("rustc", &["--version"]),
            git_sha: command_line("git", &["rev-parse", "--short=12", "HEAD"]),
        }
    }

    pub fn to_json(&self) -> String {
        format!(
            "{{\"cores\":{},\"storage_fs\":\"{}\",\"storage_kind\":\"{}\",\"profile\":\"{}\",\
             \"placement\":\"{}\",\"rustc\":\"{}\",\"git_sha\":\"{}\"}}",
            self.cores,
            crate::report::escape(&self.storage_fs),
            self.storage_kind,
            self.profile,
            crate::report::escape(&self.placement),
            crate::report::escape(&self.rustc),
            crate::report::escape(&self.git_sha),
        )
    }
}

/// CPUs the host has online — not the CPUs this thread may run on,
/// which pinning has already narrowed by the time anyone asks.
pub fn online_cpus() -> usize {
    let listed = std::fs::read_to_string("/sys/devices/system/cpu/online").ok().map(|list| {
        // "0-1", "0,2-3": sum the ranges.
        list.trim()
            .split(',')
            .filter_map(|range| {
                let (lo, hi) = range.split_once('-').unwrap_or((range, range));
                Some(hi.parse::<usize>().ok()? - lo.parse::<usize>().ok()? + 1)
            })
            .sum()
    });
    match listed {
        Some(n) if n > 0 => n,
        _ => std::thread::available_parallelism().map_or(1, usize::from),
    }
}

/// First stdout line of a command, or `unknown` (the driver's checkout
/// is not a git repository, for one).
fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

/// Filesystem type of the mount holding `dir`: the longest mount point
/// in `/proc/self/mountinfo` that prefixes the canonical path.
fn fs_type(dir: &Path) -> Option<String> {
    let dir = dir.canonicalize().ok()?;
    let info = std::fs::read_to_string("/proc/self/mountinfo").ok()?;
    let mut best: Option<(usize, String)> = None;
    for line in info.lines() {
        // "… <mount point> <options> … - <fs type> <source> <super options>"
        let (left, right) = line.split_once(" - ")?;
        let mount_point = left.split(' ').nth(4)?;
        if dir.starts_with(mount_point)
            && best.as_ref().is_none_or(|(len, _)| mount_point.len() >= *len)
        {
            best = Some((mount_point.len(), right.split(' ').next()?.to_string()));
        }
    }
    best.map(|(_, fs)| fs)
}

/// `struct timespec` on 64-bit Linux.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// The CPU the engine's threads are confined to.
pub const ENGINE_CPU: usize = 0;
/// The CPU the harness's producer and reader threads run on.
pub const HARNESS_CPU: usize = 1;

/// Confine the calling thread — and every thread it spawns afterwards —
/// to one CPU. Returns whether the kernel accepted the mask; it refuses
/// a CPU the host does not have, and then nothing is changed.
///
/// Why the benchmark pins at all: left alone, the guest scheduler of the
/// calibration host keeps the engine's producer/consumer threads stacked
/// on one CPU for minutes at a time and spreads them over both at other
/// times, a 3× swing in throughput that no engine change causes (README
/// "Placement"). One CPU for the engine, the other for the load
/// generator, is the placement that repeats.
pub fn pin_current_thread(cpu: usize) -> bool {
    if cpu >= 1024 {
        return false;
    }
    let mut mask = [0u64; 16];
    mask[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `sched_setaffinity(0, len, mask)` reads `len` bytes from
    // `mask` and changes only the calling thread's CPU mask; `mask` is a
    // live array of exactly `size_of_val(&mask)` bytes, in the kernel's
    // `cpu_set_t` layout (a bit per CPU, little-endian words).
    unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) == 0 }
}

/// `CLOCK_PROCESS_CPUTIME_ID` on Linux.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// Process user + system CPU seconds so far (all threads, including
/// ones that already exited), at nanosecond resolution. `/proc` only
/// offers 10 ms ticks, too coarse for a one-second round.
pub fn cpu_seconds() -> f64 {
    let mut ts = Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `clock_gettime` writes one `timespec` through the pointer
    // and nothing else; `ts` is a live, properly aligned `timespec` of
    // the C layout (two 64-bit fields on the 64-bit Linux targets this
    // benchmark runs on), and the clock id is a constant the kernel
    // defines. A failure returns -1 and leaves `ts` as initialised.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    if rc == 0 {
        ts.tv_sec as f64 + ts.tv_nsec as f64 / 1e9
    } else {
        0.0
    }
}

/// `CLOCK_THREAD_CPUTIME_ID` on Linux.
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

/// On-CPU nanoseconds of the calling thread so far. Unlike a wall
/// clock it does not advance while the thread is preempted, which on a
/// CPU shared by five engine threads is most of the time.
pub fn thread_cpu_ns() -> u64 {
    let mut ts = Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: as in `cpu_seconds`: one `timespec` written through a
    // pointer to a live, correctly laid out value.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    if rc == 0 {
        ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
    } else {
        0
    }
}

/// Live threads of this process.
pub fn thread_count() -> usize {
    std::fs::read_dir("/proc/self/task").map_or(0, Iterator::count)
}

/// Peak resident set (`VmHWM`) in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_readers_return_live_numbers() {
        let host = Host::probe(Path::new("."), "unpinned");
        assert!(host.cores >= 1);
        assert_ne!(host.storage_fs, "");
        assert!(peak_rss_mb() > 0.0);
        assert!(thread_count() >= 1);
        let before = thread_cpu_ns();
        let mut x = 0u64;
        for i in 0..2_000_000u64 {
            x = std::hint::black_box(x.wrapping_add(i));
        }
        assert!(thread_cpu_ns() > before && cpu_seconds() > 0.0);
        assert!(host.to_json().contains("\"cores\""));
    }
}
