//! Host clocks and process memory, read without any dependency.
//!
//! Every host-time metric of the benchmark is the *on-CPU time of the
//! simulating thread*, not wall time: on a small shared host a wall
//! sample also counts the time the thread sat on the run queue behind a
//! neighbour. Wall time and run-queue wait are recorded beside it as
//! the noise record.

use std::time::Instant;

/// `struct timespec` on every 64-bit Linux target.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

/// `CLOCK_PROCESS_CPUTIME_ID` and `CLOCK_THREAD_CPUTIME_ID` from
/// `<time.h>` on Linux.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

/// Nanoseconds the calling thread has spent on a CPU.
///
/// `/proc/thread-self/schedstat` carries the same counter, but the
/// kernel only refreshes it at scheduler ticks (it reads `0` for a
/// thread younger than a tick), which is too coarse for a 1 ms set-up.
pub fn thread_cpu_ns() -> u64 {
    cpu_clock_ns(CLOCK_THREAD_CPUTIME_ID)
}

/// Nanoseconds all threads of this process have spent on a CPU: the
/// only clock that sees the workers of a threaded `run_sharded`.
pub fn process_cpu_ns() -> u64 {
    cpu_clock_ns(CLOCK_PROCESS_CPUTIME_ID)
}

fn cpu_clock_ns(clock_id: i32) -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `timespec` for the duration of
    // the call, and `clock_gettime` writes nothing else. Both callers
    // pass a clock id every Linux kernel since 2.6.12 accepts.
    let rc = unsafe { clock_gettime(clock_id, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock_id}) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// A started measurement on the calling thread.
pub struct Stopwatch {
    cpu0: u64,
    wall0: Instant,
}

impl Stopwatch {
    pub fn start() -> Self {
        Stopwatch {
            cpu0: thread_cpu_ns(),
            wall0: Instant::now(),
        }
    }

    /// On-CPU seconds of this thread since `start`.
    pub fn cpu_s(&self) -> f64 {
        (thread_cpu_ns() - self.cpu0) as f64 * 1e-9
    }

    /// Wall seconds since `start`.
    pub fn wall_s(&self) -> f64 {
        self.wall0.elapsed().as_secs_f64()
    }
}

/// Nanoseconds the calling thread has waited on a run queue (field 2 of
/// `/proc/thread-self/schedstat`); `None` where the kernel does not
/// expose it. Tick-coarse, so only meaningful over a whole workload.
pub fn run_queue_wait_ns() -> Option<u64> {
    let text = std::fs::read_to_string("/proc/thread-self/schedstat").ok()?;
    text.split_whitespace().nth(1)?.parse().ok()
}

/// Peak resident set of this process (`VmHWM`), MiB.
pub fn peak_rss_mb() -> Option<f64> {
    let text = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = text.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}
