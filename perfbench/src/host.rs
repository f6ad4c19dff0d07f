//! Host manifest, process memory and the host-speed probe.
//!
//! Every benchmark output carries the manifest; results whose manifests
//! differ are never compared.

use std::fs;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::time::Instant;

use vecmem_obs::Json;

/// Identity of the host, toolchain and source tree a result came from.
#[derive(Debug, Clone)]
pub struct Manifest {
    /// CPU model string from `/proc/cpuinfo`.
    pub cpu: String,
    /// Logical cores available to this process.
    pub logical_cores: usize,
    /// `rustc -V` of the compiler that built the benchmark.
    pub rustc: &'static str,
    /// Cargo profile and optimisation level of the build.
    pub profile: &'static str,
    /// Commit the checkout is at, or `none` outside a git checkout.
    pub git_rev: String,
    /// FNV-1a digest over the workspace sources (`crates/`, root
    /// `Cargo.toml` and `Cargo.lock`): the revision identity that also
    /// holds in a checkout without git metadata.
    pub source_digest: String,
}

/// Root of the repository the benchmark was built from.
fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("..")
}

impl Manifest {
    /// Reads the manifest of the running host.
    #[must_use]
    pub fn collect() -> Self {
        let root = repo_root();
        Self {
            cpu: cpu_model(),
            logical_cores: std::thread::available_parallelism().map_or(1, |n| n.get()),
            rustc: env!("PERFBENCH_RUSTC"),
            profile: env!("PERFBENCH_PROFILE"),
            git_rev: git_rev(&root.join(".git")).unwrap_or_else(|| "none".to_string()),
            source_digest: format!("{:016x}", source_digest(&root)),
        }
    }

    /// The manifest as a JSON object.
    #[must_use]
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("cpu", Json::str(&self.cpu)),
            ("logical_cores", Json::U64(self.logical_cores as u64)),
            ("rustc", Json::str(self.rustc)),
            ("profile", Json::str(self.profile)),
            ("git_rev", Json::str(&self.git_rev)),
            ("source_digest", Json::str(&self.source_digest)),
        ])
    }
}

fn cpu_model() -> String {
    fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Resolves `HEAD` by reading the git directory directly (no subprocess).
fn git_rev(git: &Path) -> Option<String> {
    let head = fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(name) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(rev) = fs::read_to_string(git.join(name)) {
        return Some(rev.trim().to_string());
    }
    let packed = fs::read_to_string(git.join("packed-refs")).ok()?;
    packed
        .lines()
        .find_map(|l| l.strip_suffix(name).map(|rev| rev.trim().to_string()))
}

/// FNV-1a over every file's relative path and bytes, in sorted path order.
fn source_digest(root: &Path) -> u64 {
    let mut files = vec![root.join("Cargo.toml"), root.join("Cargo.lock")];
    collect_files(&root.join("crates"), &mut files);
    files.sort();
    let mut h = Fnv::new();
    for f in &files {
        let Ok(bytes) = fs::read(f) else { continue };
        let rel = f.strip_prefix(root).unwrap_or(f);
        h.bytes(rel.to_string_lossy().as_bytes());
        h.bytes(&bytes);
    }
    h.finish()
}

fn collect_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        let Ok(kind) = entry.file_type() else {
            continue;
        };
        if kind.is_dir() {
            // Build output of a crate built on its own is not source.
            if path.file_name().is_some_and(|n| n == "target") {
                continue;
            }
            collect_files(&path, out);
        } else if kind.is_file() {
            out.push(path);
        }
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`).
///
/// # Errors
/// When `/proc/self/status` is unreadable or lacks the field.
pub fn peak_rss() -> Result<f64, String> {
    let status = fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// 64-bit FNV-1a, the digest used for pins and the source identity.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Fnv {
    /// Fresh hasher at the FNV offset basis.
    #[must_use]
    pub fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    /// Mixes in raw bytes.
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// Mixes in one integer (little-endian bytes).
    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// The digest so far.
    #[must_use]
    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv {
    fn default() -> Self {
        Self::new()
    }
}

/// Rounds of the host-speed probe: about 5 ms on a 2-vCPU Xeon host.
const PROBE_ROUNDS: u64 = 150_000;

/// Typical fastest time of the host-speed probe in a run on the 2-vCPU
/// Intel Xeon host the benchmark was defined on, in seconds: a fixed
/// scale, so that `wall_ref_s` reads as host seconds on that host.
pub const PROBE_REFERENCE_S: f64 = 0.0033;

/// Host ns of one run of a fixed integer loop that is independent of
/// the program: sixteen independent xorshift streams, each updating a
/// 16 KiB table and taking an unpredictable branch every round.
///
/// Shared hosts change speed in phases from seconds to minutes, and the
/// simulator slows with them by up to a factor of two. Code with much
/// independent work, loads and branches, such as this loop and the
/// simulator, slows by about the same factor at the same time; a single
/// dependency chain hardly slows at all. Timed between the parts of the
/// passes, the probe measures how fast the host was during a run.
#[must_use]
pub fn host_probe() -> u64 {
    const STREAMS: usize = 16;
    const TABLE: usize = 8192;
    let t = Instant::now();
    let mut table = [1u16; TABLE];
    let mut x: [u64; STREAMS] = std::array::from_fn(|i| black_box(i as u64 * 0x9e37 + 1));
    let mut acc = 0u64;
    for _ in 0..PROBE_ROUNDS {
        for v in &mut x {
            *v ^= *v << 13;
            *v ^= *v >> 7;
            *v ^= *v << 17;
            let slot = &mut table[(*v as usize) % TABLE];
            if *slot & 1 == 0 {
                acc = acc.wrapping_add(u64::from(*slot));
            } else {
                acc ^= *v;
            }
            *slot = slot.wrapping_add(1 + (acc as u16 & 3));
        }
    }
    black_box((acc, &table));
    u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX)
}
