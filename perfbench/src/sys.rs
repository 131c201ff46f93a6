//! Host clocks and memory figures the standard library does not expose:
//! per-thread and per-process CPU time, and the process's peak resident
//! set. Linux only; the declarations bind the C library std already links.

#[cfg(not(target_os = "linux"))]
compile_error!("perfbench reads Linux CPU clocks and rusage");

use std::os::raw::{c_int, c_long};

#[repr(C)]
struct Timespec {
    tv_sec: c_long,
    tv_nsec: c_long,
}

/// `struct rusage` on 64-bit Linux: two `timeval`s then fourteen longs,
/// `ru_maxrss` (KiB) first among them.
#[repr(C)]
struct Rusage {
    words: [c_long; 18],
}

const CLOCK_PROCESS_CPUTIME_ID: c_int = 2;
const CLOCK_THREAD_CPUTIME_ID: c_int = 3;
const RUSAGE_SELF: c_int = 0;
const MAXRSS_WORD: usize = 4;

extern "C" {
    fn clock_gettime(clock: c_int, tp: *mut Timespec) -> c_int;
    fn getrusage(who: c_int, usage: *mut Rusage) -> c_int;
}

fn clock_ns(clock: c_int) -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` for the whole
    // call, and both clock ids are defined on every Linux since 2.6.12.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock}) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// CPU time consumed by the calling thread, in ns.
pub fn thread_cpu_ns() -> u64 {
    clock_ns(CLOCK_THREAD_CPUTIME_ID)
}

/// User + system CPU time consumed by every thread of the process, in ns.
pub fn process_cpu_ns() -> u64 {
    clock_ns(CLOCK_PROCESS_CPUTIME_ID)
}

/// High-water resident set of the process so far, in bytes.
pub fn peak_rss_bytes() -> u64 {
    let mut ru = Rusage { words: [0; 18] };
    // SAFETY: `ru` is a writable buffer of exactly `sizeof(struct rusage)`
    // (144 bytes on 64-bit Linux) that outlives the call.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut ru) };
    assert_eq!(rc, 0, "getrusage failed");
    ru.words[MAXRSS_WORD] as u64 * 1024
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clocks_advance_with_work() {
        let (t0, p0) = (thread_cpu_ns(), process_cpu_ns());
        let mut x = 0u64;
        for i in 0..2_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
        }
        std::hint::black_box(x);
        assert!(thread_cpu_ns() > t0);
        assert!(process_cpu_ns() > p0);
        assert!(peak_rss_bytes() > 1 << 20);
    }
}
