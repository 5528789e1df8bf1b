//! What the benchmark reads from the machine: resident-set high-water
//! mark, core count, CPU model, toolchain, and a scratch directory inside
//! the checkout.

use std::path::{Path, PathBuf};

fn status_kib(field: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// `VmHWM` of this process in bytes (0 where `/proc` is unavailable).
pub fn peak_rss_bytes() -> u64 {
    status_kib("VmHWM:").map_or(0, |k| k * 1024)
}

/// Reset the resident-set high-water mark to the current resident size
/// (`/proc/self/clear_refs` ← `5`). Returns false when the kernel or the
/// sandbox refuses the write; `VmHWM` then still includes set-up.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Hand freed heap pages back to the kernel (glibc `malloc_trim`), so that
/// resident-set readings count what the program holds, not what earlier
/// phases freed and the allocator kept. Does nothing where there is no
/// glibc to ask.
pub fn release_freed_heap() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> i32;
        }
        // SAFETY: `malloc_trim` takes no pointers and may be called at any
        // time from any thread; it only returns free heap pages to the
        // kernel and leaves every live allocation untouched.
        unsafe { malloc_trim(0) };
    }
}

/// Cores available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZero::get)
}

/// First `model name` of `/proc/cpuinfo`.
pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// First line of a command's standard output, or `unknown`.
fn first_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

/// The machine stamp written into every result set.
#[derive(Debug, Clone)]
pub struct Machine {
    pub nproc: usize,
    pub cpu_model: String,
    pub rustc: String,
    pub git_sha: String,
}

impl Machine {
    /// Stamp this machine. `rustc -V` and `git rev-parse HEAD` are asked
    /// once per result set; a checkout that is not a git repository (or
    /// has no `git`) stamps `unknown`.
    pub fn stamp() -> Self {
        Self {
            nproc: nproc(),
            cpu_model: cpu_model(),
            rustc: first_line("rustc", &["-V"]),
            git_sha: first_line("git", &["rev-parse", "HEAD"]),
        }
    }
}

/// A scratch directory under the current directory (the checkout root),
/// removed with everything in it when dropped. Paths stay relative so
/// Unix-socket paths inside it fit `sun_path` however deep the checkout is.
#[derive(Debug)]
pub struct Scratch {
    dir: PathBuf,
}

/// Everything the benchmark writes lands under this directory.
pub const RUN_DIR: &str = ".pipeline_bench_run";

impl Scratch {
    pub fn new() -> std::io::Result<Self> {
        // Process id plus a per-process count: two runs in one process
        // (the unit tests) never share, or remove, each other's directory.
        static NEXT: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
        let nth = NEXT.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
        let dir = Path::new(RUN_DIR).join(format!("{}-{nth}", std::process::id()));
        if dir.exists() {
            std::fs::remove_dir_all(&dir)?;
        }
        std::fs::create_dir_all(&dir)?;
        Ok(Self { dir })
    }

    pub fn path(&self) -> &Path {
        &self.dir
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peak_rss_is_readable_on_linux() {
        if Path::new("/proc/self/status").exists() {
            assert!(peak_rss_bytes() > 0);
        }
        assert!(nproc() >= 1);
        assert!(!cpu_model().is_empty());
    }

    #[test]
    fn missing_programs_stamp_unknown() {
        assert_eq!(first_line("definitely-not-a-program-xyz", &[]), "unknown");
    }
}
