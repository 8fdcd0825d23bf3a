//! Process accounting (`getrusage`) and the environment fingerprint.
//! Linux, 64-bit only — like the product's epoll event loop.

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("the benchmark reads process accounting through Linux's 64-bit getrusage layout");

use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

/// `struct rusage` on 64-bit Linux: two `timeval`s then fourteen longs.
#[repr(C)]
#[derive(Default)]
struct RawRusage {
    utime: [i64; 2],
    stime: [i64; 2],
    maxrss_kb: i64,
    unused: [i64; 11],
    nvcsw: i64,
    nivcsw: i64,
}

extern "C" {
    fn getrusage(who: i32, usage: *mut RawRusage) -> i32;
}

/// A snapshot of what this process has consumed so far (all threads,
/// including ones that already exited).
#[derive(Debug, Clone, Copy)]
pub struct Usage {
    /// User + system CPU time.
    pub cpu: Duration,
    /// High-water resident set size.
    pub peak_rss_mb: f64,
    /// Voluntary context switches (blocking waits, wake-ups).
    pub vol_ctx_switches: u64,
}

pub fn usage() -> Usage {
    let mut raw = RawRusage::default();
    // SAFETY: `raw` is a valid, writable rusage-sized struct; RUSAGE_SELF = 0.
    let rc = unsafe { getrusage(0, &mut raw) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) failed");
    let tv = |t: [i64; 2]| Duration::from_secs(t[0] as u64) + Duration::from_micros(t[1] as u64);
    Usage {
        cpu: tv(raw.utime) + tv(raw.stime),
        peak_rss_mb: raw.maxrss_kb as f64 / 1024.0,
        vol_ctx_switches: raw.nvcsw as u64,
    }
}

/// Resident set size right now, in MB (`VmRSS` of `/proc/self/status`).
pub fn rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs is mounted");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmRSS:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmRSS line in /proc/self/status");
    kb / 1024.0
}

/// Median round trip, in us, of two threads waking each other through a
/// mutex and condition variable: how long the machine takes to get a
/// blocked thread running again. A few milliseconds of light work.
pub fn wakeup_round_trip_us() -> f64 {
    const ROUND_TRIPS: usize = 200;
    type Flag = (Mutex<bool>, Condvar);
    fn raise(flag: &Flag) {
        *flag.0.lock().expect("flag mutex is never poisoned") = true;
        flag.1.notify_one();
    }
    fn await_and_clear(flag: &Flag) {
        let mut raised = flag.0.lock().expect("flag mutex is never poisoned");
        while !*raised {
            raised = flag.1.wait(raised).expect("flag mutex is never poisoned");
        }
        *raised = false;
    }
    let ping: Flag = Default::default();
    let pong: Flag = Default::default();
    let mut round_trips: Vec<Duration> = std::thread::scope(|scope| {
        scope.spawn(|| {
            for _ in 0..ROUND_TRIPS {
                await_and_clear(&ping);
                raise(&pong);
            }
        });
        (0..ROUND_TRIPS)
            .map(|_| {
                let sent = Instant::now();
                raise(&ping);
                await_and_clear(&pong);
                sent.elapsed()
            })
            .collect()
    });
    round_trips.sort_unstable();
    round_trips[ROUND_TRIPS / 2].as_secs_f64() * 1e6
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |p| p.get())
}

/// The mux worker-pool width `hlock_net` picks for an `n`-node cluster
/// on this machine (mirrors its private `pool_width`).
pub fn mux_pool_width(n: usize) -> usize {
    n.min(nproc().saturating_sub(1).max(1)).min(8)
}

fn first_line(path: &str) -> Option<String> {
    std::fs::read_to_string(path).ok()?.lines().next().map(|l| l.trim().to_string())
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = std::process::Command::new(program).args(args).output().ok()?;
    out.status.success().then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// Where the numbers were taken: `(key, value)` pairs for the results
/// file of the `run` subcommand (asks `rustc` and `git`).
pub fn fingerprint() -> Vec<(&'static str, String)> {
    let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let unknown = || "unknown".to_string();
    vec![
        ("nproc", nproc().to_string()),
        ("cpu_model", cpu_model),
        ("kernel", first_line("/proc/sys/kernel/osrelease").unwrap_or_else(unknown)),
        ("loadavg_at_start", first_line("/proc/loadavg").unwrap_or_else(unknown)),
        ("mux_pool_width_3_nodes", mux_pool_width(3).to_string()),
        ("rustc", command_line("rustc", &["-V"]).unwrap_or_else(unknown)),
        ("git_commit", command_line("git", &["rev-parse", "HEAD"]).unwrap_or_else(unknown)),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn usage_is_monotone_and_nonzero() {
        let a = usage();
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = x.wrapping_add(i * i);
        }
        std::hint::black_box(x);
        let b = usage();
        assert!(b.cpu >= a.cpu);
        assert!(b.peak_rss_mb > 0.5, "peak rss {} MB", b.peak_rss_mb);
        assert!(rss_mb() > 0.5 && rss_mb() <= b.peak_rss_mb + 1.0);
        assert!(b.vol_ctx_switches >= a.vol_ctx_switches);
    }
}
