//! CPU-time clocks read from `/proc`, and the host-speed reference the
//! benchmark scales its times by.
//!
//! The benchmark times its runs in CPU seconds rather than wall seconds:
//! on a shared virtual machine the hypervisor can take a virtual CPU away
//! for a while (steal time), which stretches wall time by however busy
//! the host's other tenants are. The kernel's per-task run time leaves
//! steal time out. CPU time still runs slow while other tenants contend
//! for the same cores (a whole run's set-up and timed part were seen to
//! take 22 % more CPU time than a rerun of the same seed, with no steal
//! time), so each timing is also divided by the CPU time of a fixed
//! reference computation, [`reference_s`], measured just before and after
//! it, and multiplied by [`REF_NOMINAL_S`]: the figures are CPU seconds
//! at the speed of a host on which the reference takes that long. The
//! reference is the benchmark's own code, so no change to the program
//! moves it.

/// Ticks per second of the `utime`/`stime` fields of `/proc/*/stat`
/// (`USER_HZ`, fixed at 100 on Linux).
const USER_HZ: f64 = 100.0;

/// CPU time of this process, every thread together (live and exited),
/// user plus system, in seconds. The kernel brings the calling thread's
/// time up to date before it answers; the resolution is 10 ms.
///
/// # Panics
///
/// Panics when `/proc/self/stat` cannot be read or parsed.
#[must_use]
pub fn process_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("/proc/self/stat is readable");
    // Fields after the parenthesised command name, which may hold spaces:
    // state is field 3, utime field 14, stime field 15.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| {
        fields
            .get(i - 3)
            .and_then(|v| v.parse::<u64>().ok())
            .expect("/proc/self/stat has utime and stime")
    };
    (tick(14) + tick(15)) as f64 / USER_HZ
}

/// CPU time of the calling thread, in seconds, with nanosecond
/// resolution (`/proc/thread-self/schedstat`, first field). The kernel
/// brings a thread's run time up to date when it schedules, so the
/// thread yields first; otherwise the reading lags by up to a tick.
///
/// # Panics
///
/// Panics when `/proc/thread-self/schedstat` cannot be read or parsed.
#[must_use]
pub fn thread_s() -> f64 {
    std::thread::yield_now();
    let text = std::fs::read_to_string("/proc/thread-self/schedstat")
        .expect("/proc/thread-self/schedstat is readable");
    let ns = text
        .split_whitespace()
        .next()
        .and_then(|v| v.parse::<u64>().ok())
        .expect("/proc/thread-self/schedstat starts with the run time");
    ns as f64 / 1e9
}

/// Steal time of the whole machine so far (every CPU, `/proc/stat`), in
/// seconds: how long the hypervisor ran something else while this
/// machine's virtual CPUs had work. Reported for provenance only; 0 when
/// the kernel does not report it.
#[must_use]
pub fn steal_s() -> f64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("cpu "))
                .and_then(|l| l.split_whitespace().nth(8))
                .and_then(|v| v.parse::<u64>().ok())
        })
        .map_or(0.0, |t| t as f64 / USER_HZ)
}

/// Board size of the reference search.
const REF_QUEENS: u32 = 13;

/// Number of ways to place [`REF_QUEENS`] non-attacking queens.
const REF_SOLUTIONS: u64 = 73_712;

/// CPU time of [`reference_s`] on the nominal host, seconds (the median
/// on a quiet 2-vCPU Xeon virtual machine).
pub const REF_NOMINAL_S: f64 = 0.033;

/// Counts the placements of queens on the rows below the placed ones:
/// a branchy depth-first search over a few registers, like the window
/// solver's, but code of the benchmark's own.
fn queens(cols: u32, left: u32, right: u32, full: u32) -> u64 {
    if cols == full {
        return 1;
    }
    let mut free = full & !(cols | left | right);
    let mut n = 0;
    while free != 0 {
        let bit = free & free.wrapping_neg();
        free ^= bit;
        n += queens(cols | bit, (left | bit) << 1, (right | bit) >> 1, full);
    }
    n
}

/// Runs the reference search once on each of `threads` threads at once
/// (on the calling thread when `threads` is 1), as many as the measured
/// code keeps busy, and returns the mean of their CPU times, seconds.
///
/// # Panics
///
/// Panics if a search miscounts or a thread CPU clock cannot be read.
#[must_use]
pub fn reference_s(threads: usize) -> f64 {
    if threads <= 1 {
        return reference_once();
    }
    std::thread::scope(|s| {
        let runs: Vec<_> = (0..threads).map(|_| s.spawn(reference_once)).collect();
        runs.into_iter()
            .map(|r| r.join().expect("the reference search completes"))
            .sum::<f64>()
            / threads as f64
    })
}

fn reference_once() -> f64 {
    let t0 = thread_s();
    let full = (1_u32 << std::hint::black_box(REF_QUEENS)) - 1;
    let n = queens(0, 0, 0, full);
    let t = thread_s() - t0;
    assert_eq!(n, REF_SOLUTIONS, "the reference search miscounted");
    t
}

/// Scales `cpu_s`, measured between two reference runs that took
/// `ref_before` and `ref_after`, to the nominal host's speed.
#[must_use]
pub fn at_nominal_speed(cpu_s: f64, ref_before: f64, ref_after: f64) -> f64 {
    cpu_s * REF_NOMINAL_S * 2.0 / (ref_before + ref_after)
}
