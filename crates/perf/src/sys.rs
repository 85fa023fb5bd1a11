//! The two facts the standard library does not expose: this process's
//! CPU time (`getrusage`) and a filesystem's free space (`statvfs`).
//!
//! Both are plain libc calls declared here by hand — the workspace
//! builds offline with no `libc` crate — so this is the one module of
//! the benchmark that contains `unsafe`. The struct layouts are the
//! 64-bit Linux ones; other targets get an error instead of a wrong
//! number, and the caller counts it as a failed operation. The crate
//! root denies `unsafe_code`; this module alone re-allows it.
#![allow(unsafe_code)]

use std::path::Path;

/// User + system CPU seconds consumed by this process so far, all
/// threads included (terminated ones too).
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
pub fn cpu_seconds() -> Result<f64, String> {
    #[repr(C)]
    struct Timeval {
        sec: i64,
        usec: i64,
    }
    /// `struct rusage`: two timevals, then fourteen `long` counters
    /// this module never reads.
    #[repr(C)]
    struct Rusage {
        utime: Timeval,
        stime: Timeval,
        rest: [i64; 14],
    }
    extern "C" {
        fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    }
    const RUSAGE_SELF: i32 = 0;
    let mut ru = Rusage {
        utime: Timeval { sec: 0, usec: 0 },
        stime: Timeval { sec: 0, usec: 0 },
        rest: [0; 14],
    };
    // SAFETY: `ru` is a live, writable, correctly sized and aligned
    // `struct rusage` for this target (LP64 Linux: 2 × timeval{long,long}
    // + 14 × long = 144 bytes); getrusage writes only within it and keeps
    // no pointer past the call.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut ru) };
    if rc != 0 {
        return Err(format!("getrusage: {}", std::io::Error::last_os_error()));
    }
    let secs = |t: &Timeval| t.sec as f64 + t.usec as f64 / 1e6;
    Ok(secs(&ru.utime) + secs(&ru.stime))
}

/// Bytes available to an unprivileged writer on the filesystem holding
/// `path`.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
pub fn free_bytes(path: &Path) -> Result<u64, String> {
    use std::os::unix::ffi::OsStrExt;
    /// `struct statvfs` on LP64 Linux (glibc and musl agree): eleven
    /// 8-byte fields, then `int __f_spare[6]`.
    #[repr(C)]
    struct Statvfs {
        bsize: u64,
        frsize: u64,
        blocks: u64,
        bfree: u64,
        bavail: u64,
        files: u64,
        ffree: u64,
        favail: u64,
        fsid: u64,
        flag: u64,
        namemax: u64,
        spare: [i32; 6],
    }
    extern "C" {
        fn statvfs(path: *const std::ffi::c_char, buf: *mut Statvfs) -> i32;
    }
    let c_path = std::ffi::CString::new(path.as_os_str().as_bytes())
        .map_err(|_| format!("path {} holds a NUL byte", path.display()))?;
    let mut st = Statvfs {
        bsize: 0,
        frsize: 0,
        blocks: 0,
        bfree: 0,
        bavail: 0,
        files: 0,
        ffree: 0,
        favail: 0,
        fsid: 0,
        flag: 0,
        namemax: 0,
        spare: [0; 6],
    };
    // SAFETY: `c_path` is a NUL-terminated string that outlives the
    // call, and `st` is a live, writable `struct statvfs` of this
    // target's size (112 bytes) and alignment; statvfs writes only
    // within it and keeps neither pointer.
    let rc = unsafe { statvfs(c_path.as_ptr(), &mut st) };
    if rc != 0 {
        return Err(format!("statvfs {}: {}", path.display(), std::io::Error::last_os_error()));
    }
    Ok(st.bavail.saturating_mul(st.frsize))
}

/// Unsupported target: no hand-declared layout to trust.
#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
pub fn cpu_seconds() -> Result<f64, String> {
    Err("cpu time is only measured on 64-bit Linux".into())
}

/// Unsupported target: no hand-declared layout to trust.
#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
pub fn free_bytes(path: &Path) -> Result<u64, String> {
    Err(format!("free space of {} is only measured on 64-bit Linux", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_time_advances_with_work() {
        let before = cpu_seconds().unwrap();
        let mut x = 1u64;
        for i in 0..20_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(6364136223846793005).wrapping_add(i));
        }
        std::hint::black_box(x);
        assert!(cpu_seconds().unwrap() > before);
    }

    #[test]
    fn free_space_of_the_temp_dir_is_plausible() {
        let free = free_bytes(&std::env::temp_dir()).unwrap();
        // Under 1 EiB: a mis-declared struct would read a garbage field.
        assert!(free < 1 << 60, "{free}");
        assert!(free_bytes(Path::new("/nonexistent/ah-perf")).is_err());
    }
}
