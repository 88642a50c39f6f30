//! Process resource usage through `getrusage(2)`, declared locally
//! (no `libc` crate is available). The struct layout is Linux's.

#[repr(C)]
#[derive(Default)]
struct Timeval {
    sec: i64,
    usec: i64,
}

#[repr(C)]
#[derive(Default)]
struct RawRusage {
    utime: Timeval,
    stime: Timeval,
    maxrss: i64,
    ixrss: i64,
    idrss: i64,
    isrss: i64,
    minflt: i64,
    majflt: i64,
    nswap: i64,
    inblock: i64,
    oublock: i64,
    msgsnd: i64,
    msgrcv: i64,
    nsignals: i64,
    nvcsw: i64,
    nivcsw: i64,
}

extern "C" {
    fn getrusage(who: i32, usage: *mut RawRusage) -> i32;
}

const RUSAGE_SELF: i32 = 0;

/// A snapshot of the whole process's resource usage (all threads).
#[derive(Debug, Clone, Copy)]
pub struct Usage {
    /// User CPU seconds.
    pub user_s: f64,
    /// System CPU seconds.
    pub sys_s: f64,
    /// Minor page faults.
    pub minflt: u64,
    /// Peak resident set size, in KiB.
    pub maxrss_kb: u64,
}

/// Reads the current usage.
pub fn now() -> Usage {
    let mut raw = RawRusage::default();
    // SAFETY: `raw` is a valid, writable `struct rusage` with Linux's
    // layout, and `RUSAGE_SELF` is a valid `who`.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut raw) };
    assert_eq!(
        rc, 0,
        "getrusage(RUSAGE_SELF) cannot fail on a valid buffer"
    );
    let secs = |t: &Timeval| t.sec as f64 + t.usec as f64 * 1e-6;
    Usage {
        user_s: secs(&raw.utime),
        sys_s: secs(&raw.stime),
        minflt: raw.minflt.max(0) as u64,
        maxrss_kb: raw.maxrss.max(0) as u64,
    }
}
