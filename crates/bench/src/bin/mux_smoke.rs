//! **Mux connection-scaling smoke test**: spawns a 1k+ node hierarchical
//! cluster over loopback on the readiness-driven mux transport and runs
//! a pipelined acquire/release sweep with one distinct lock per node —
//! the thousands-of-links regime a thread per peer link cannot reach
//! (~2 threads per link; the mux multiplexes every link over a fixed
//! worker pool). Exits non-zero on any failure
//! so CI can gate on it.
//!
//! The process raises its own `RLIMIT_NOFILE` soft limit first (a
//! 1k-node mesh holds several thousand sockets at once) and reports the
//! limit it ran under, so a CI box with a stingy hard limit fails loudly
//! instead of wedging in `EMFILE` retries.
//!
//! ```text
//! cargo run --release -p hlock-bench --bin mux_smoke [nodes]
//! ```

use hlock_core::{LockId, Mode, ProtocolConfig};
use hlock_net::Cluster;
use std::time::{Duration, Instant};

const TIMEOUT: Duration = Duration::from_secs(120);

fn fail(msg: &str) -> ! {
    eprintln!("mux_smoke: FAIL: {msg}");
    std::process::exit(1);
}

#[cfg(unix)]
mod fdlimit {
    #[repr(C)]
    struct RLimit {
        cur: u64,
        max: u64,
    }

    const RLIMIT_NOFILE: i32 = 7;

    extern "C" {
        fn getrlimit(resource: i32, rlim: *mut RLimit) -> i32;
        fn setrlimit(resource: i32, rlim: *const RLimit) -> i32;
    }

    /// Raises the soft fd limit to at least `want` (capped at the hard
    /// limit) and returns the resulting (soft, hard) pair.
    pub fn raise_nofile(want: u64) -> (u64, u64) {
        let mut lim = RLimit { cur: 0, max: 0 };
        if unsafe { getrlimit(RLIMIT_NOFILE, &mut lim) } != 0 {
            return (0, 0);
        }
        if lim.cur < want {
            let raised = RLimit { cur: want.min(lim.max), max: lim.max };
            if unsafe { setrlimit(RLIMIT_NOFILE, &raised) } == 0 {
                lim.cur = raised.cur;
            }
        }
        (lim.cur, lim.max)
    }
}

fn main() {
    let n: usize = std::env::args().nth(1).and_then(|a| a.parse().ok()).unwrap_or(1024);

    // Budget: every node listens, and each active pair holds two sockets
    // at each end; leave generous slack for epoll/waker/stdio fds.
    let want_fds = (n as u64) * 6 + 256;
    #[cfg(unix)]
    {
        let (soft, hard) = fdlimit::raise_nofile(want_fds);
        println!("mux_smoke: fd limit soft={soft} hard={hard} (want {want_fds})");
        if soft < want_fds {
            fail(&format!("RLIMIT_NOFILE soft limit {soft} < required {want_fds}"));
        }
    }

    let spawn_start = Instant::now();
    let cluster = match Cluster::spawn_hierarchical(n, n, ProtocolConfig::default()) {
        Ok(c) => c,
        Err(e) => fail(&format!("spawn of {n} nodes failed: {e}")),
    };
    let spawn_elapsed = spawn_start.elapsed();

    // Pipelined sweep: every node requests its own lock (all tokens
    // homed at node 0), so node 0's event loop serves ~n links at once;
    // then all grants are awaited and released.
    let sweep_start = Instant::now();
    let mut tickets = Vec::with_capacity(n);
    for i in 1..n {
        match cluster.node(i).request(LockId(i as u32), Mode::Write) {
            Ok(t) => tickets.push((i, t)),
            Err(e) => fail(&format!("request from node {i} failed: {e}")),
        }
    }
    for &(i, t) in &tickets {
        if let Err(e) = cluster.node(i).wait(t, TIMEOUT) {
            fail(&format!("grant for node {i} never arrived: {e}"));
        }
    }
    for &(i, t) in &tickets {
        if let Err(e) = cluster.node(i).release(LockId(i as u32), t) {
            fail(&format!("release from node {i} failed: {e}"));
        }
    }
    let sweep_elapsed = sweep_start.elapsed();

    // A second, re-contending round proves the links stay healthy after
    // the first storm (tokens now live at the requesting nodes).
    for i in (1..n).step_by(7) {
        let t = match cluster.node(0).acquire(LockId(i as u32), Mode::Write, TIMEOUT) {
            Ok(t) => t,
            Err(e) => fail(&format!("re-acquire of lock {i} from node 0 failed: {e}")),
        };
        if let Err(e) = cluster.node(0).release(LockId(i as u32), t) {
            fail(&format!("re-release of lock {i} failed: {e}"));
        }
    }

    let messages: u64 = cluster.message_stats().values().sum();
    let bytes = cluster.bytes_sent();
    if messages == 0 {
        fail("no messages crossed the wire");
    }
    cluster.shutdown();

    println!(
        "mux_smoke: OK — {} nodes, {} grants, {messages} messages, {bytes} wire bytes; \
         spawn {:.2}s, pipelined sweep {:.2}s",
        n,
        n - 1,
        spawn_elapsed.as_secs_f64(),
        sweep_elapsed.as_secs_f64(),
    );
}
