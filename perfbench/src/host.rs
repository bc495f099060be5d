//! Process CPU time, from `getrusage(2)`, and peak resident memory, from
//! `/proc/self/status`.
//!
//! `/proc/self/stat` counts CPU time in 10 ms clock ticks, too coarse for
//! sub-second windows; `getrusage` reports microseconds. The standard
//! library exposes neither, so the call is declared here against the C
//! library std already links. Its `ru_maxrss` is not used: `exec` carries
//! the parent's peak over into it, so it would count the launcher.

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("the benchmark reads struct rusage with the 64-bit Linux layout");

#[repr(C)]
#[derive(Default)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` on 64-bit Linux: two `timeval`s then fourteen `long`s.
#[repr(C)]
#[derive(Default)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    rest: [i64; 14],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

const RUSAGE_SELF: i32 = 0;

/// User plus system CPU seconds the process has used so far.
///
/// # Panics
///
/// Panics if `getrusage` fails, which it cannot for `RUSAGE_SELF` and a
/// valid pointer.
#[must_use]
pub fn cpu_s() -> f64 {
    let mut ru = Rusage::default();
    // SAFETY: `ru` is a live, writable `Rusage` whose `repr(C)` layout
    // matches the kernel's 64-bit `struct rusage` (checked by the
    // `compile_error!` gate above), and `getrusage` writes only within it.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut ru) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) failed");
    let secs = |t: &Timeval| t.sec as f64 + t.usec as f64 * 1e-6;
    secs(&ru.utime) + secs(&ru.stime)
}

/// Peak resident set size of this process image so far (`VmHWM`), MiB.
///
/// # Panics
///
/// Panics if `/proc/self/status` is unreadable or lacks `VmHWM`.
#[must_use]
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("/proc/self/status");
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in kB");
    kib / 1024.0
}
