//! What the benchmark asks of the machine and of its own checkout: memory
//! and CPU readings from `/proc`, scratch directories inside `benchmark/out`,
//! and the guard that the benchmark's build profile is the users' profile.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// The benchmark package's directory (fixed at build time: the binary is
/// built in, and run from, one checkout).
pub fn package_dir() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// `benchmark/out`, where results, span files and scratch data go.
pub fn out_dir() -> PathBuf {
    package_dir().join("out")
}

/// Cores the process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Peak resident set of this process so far, MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM line in /proc/self/status");
    kb / 1024.0
}

/// Wait until this process has one thread again.
///
/// `std::thread::scope` (the runner pool's) returns when its closures are
/// done, not when the OS threads are gone. A pool started in that window
/// finds the malloc arenas of the last one still taken, glibc opens a fresh
/// arena for it, and that arena stays resident: in one `fleet_churn` run out
/// of four, peak RSS read 29.5 MB where it otherwise reads 23. Called between
/// pool runs, outside every timed interval, this makes the reading repeat.
pub fn wait_for_threads() {
    let threads = || {
        let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
        status
            .lines()
            .find_map(|l| l.strip_prefix("Threads:"))
            .and_then(|v| v.trim().parse::<u32>().ok())
            .expect("Threads line in /proc/self/status")
    };
    while threads() > 1 {
        std::thread::yield_now();
    }
}

/// CPU seconds (user + system, all threads) this process has used.
pub fn cpu_seconds() -> f64 {
    // Linux reports these fields in USER_HZ ticks, which is 100 on every
    // supported architecture.
    const TICKS_PER_S: f64 = 100.0;
    let stat = std::fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    // The command name (field 2) may hold spaces; fields resume after ')'.
    let rest = stat.rsplit_once(')').expect("comm field in stat").1;
    let mut fields = rest.split_whitespace().skip(11);
    let mut tick = || -> f64 { fields.next().and_then(|v| v.parse().ok()).expect("tick") };
    (tick() + tick()) / TICKS_PER_S
}

/// Self-deleting scratch directory under `benchmark/out/tmp` (the benchmark
/// may write only inside its checkout, so the system temp dir is out).
pub struct ScratchDir(PathBuf);

impl ScratchDir {
    /// Create `benchmark/out/tmp/<label>-<pid>-<n>`.
    pub fn new(label: &str) -> Self {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let path = out_dir()
            .join("tmp")
            .join(format!("{label}-{}-{n}", std::process::id()));
        std::fs::create_dir_all(&path).expect("create scratch dir");
        Self(path)
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The `[profile.release]` settings of a manifest, comments and blank lines
/// dropped, sorted.
fn release_profile(manifest: &str) -> Vec<String> {
    let mut settings: Vec<String> = manifest
        .lines()
        .map(|l| l.split('#').next().unwrap_or("").trim())
        .skip_while(|l| *l != "[profile.release]")
        .skip(1)
        .take_while(|l| !l.starts_with('['))
        .filter(|l| !l.is_empty())
        .map(|l| l.split_whitespace().collect::<String>())
        .collect();
    settings.sort();
    settings
}

/// Refuse to run when the root manifest's `[profile.release]` differs from
/// the benchmark's copy of it: the benchmark must measure the build users get.
pub fn profile_drift(root_manifest: &str, own_manifest: &str) -> Result<(), String> {
    let (root, own) = (
        release_profile(root_manifest),
        release_profile(own_manifest),
    );
    if root == own {
        Ok(())
    } else {
        Err(format!(
            "[profile.release] drifted: the root manifest has {root:?}, benchmark/Cargo.toml has \
             {own:?}; copy the root block into benchmark/Cargo.toml"
        ))
    }
}

/// [`profile_drift`] on the two manifests of this checkout.
pub fn check_profile() -> Result<(), String> {
    let read = |p: PathBuf| {
        std::fs::read_to_string(&p).map_err(|e| format!("cannot read {}: {e}", p.display()))
    };
    profile_drift(
        &read(package_dir().join("../Cargo.toml"))?,
        &read(package_dir().join("Cargo.toml"))?,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    const ROOT: &str = "[package]\nname = \"x\"\n\n# hot loops\n[profile.release]\nlto = \"fat\"\n\
                        codegen-units = 1\n\n[profile.bench]\ndebug = true\n";

    #[test]
    fn identical_profiles_pass_whatever_the_layout() {
        let own = "[profile.release]\ncodegen-units=1 # one unit\nlto = \"fat\"\n";
        assert_eq!(profile_drift(ROOT, own), Ok(()));
    }

    #[test]
    fn doctored_manifest_is_refused() {
        let thin = ROOT.replace("\"fat\"", "\"thin\"");
        assert!(profile_drift(&thin, ROOT).unwrap_err().contains("thin"));
        let extra = ROOT.replace("codegen-units = 1", "codegen-units = 1\nopt-level = 2");
        assert!(profile_drift(&extra, ROOT).is_err());
        let gone = ROOT.replace("[profile.release]", "[profile.dev]");
        assert!(profile_drift(&gone, ROOT).is_err());
    }

    #[test]
    fn this_checkout_has_not_drifted() {
        assert_eq!(check_profile(), Ok(()));
    }

    #[test]
    fn proc_readings_are_sane() {
        assert!(peak_rss_mb() > 0.5);
        assert!(cpu_seconds() >= 0.0);
        assert!(nproc() >= 1);
    }
}
