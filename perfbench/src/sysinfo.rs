//! Process memory and the environment record written beside every
//! result.

use std::process::Command;

/// Returns free heap pages to the kernel, so that memory the program
/// allocates next shows in the resident set instead of reusing pages the
/// benchmark touched and freed while generating its inputs.
pub fn release_free_heap() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> i32;
        }
        // SAFETY: `malloc_trim` takes no pointers and only releases memory
        // the allocator holds unused; glibc allows it at any time from any
        // thread.
        unsafe {
            malloc_trim(0);
        }
    }
}

/// Resets the process's peak resident set (`VmHWM`) to its current
/// resident set. Returns `false` where the kernel does not allow it.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// A `/proc/self/status` field in kB (`VmRSS`, `VmHWM`).
pub fn status_kb(field: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status.lines().find_map(|line| {
        let rest = line.strip_prefix(field)?.strip_prefix(':')?;
        rest.trim().trim_end_matches("kB").trim().parse().ok()
    })
}

/// Logical CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The compiler that built the benchmark.
pub fn rustc_version() -> &'static str {
    env!("PERFBENCH_RUSTC")
}

/// The commit of the checkout the benchmark was built from, or
/// `"unknown"` outside a git work tree. The search stops at the
/// checkout's parent, so an enclosing repository is never reported.
pub fn git_commit() -> String {
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/..");
    let ceiling = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
    Command::new("git")
        .args(["-C", root, "rev-parse", "HEAD"])
        .env("GIT_CEILING_DIRECTORIES", ceiling)
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}
