//! Host stamp and `/proc` readings: who ran a result, and how much memory
//! it took.

use std::path::Path;

use wsn_sim::persist::{json, Node};

use crate::digest::Fnv64;

/// What a result was measured on. Two results compare only when their
/// [`fingerprint`](HostStamp::fingerprint)s match.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HostStamp {
    /// Commit of the checkout, when it is a git work tree; `unknown`
    /// otherwise.
    pub git_rev: String,
    /// `model name` of the first CPU in `/proc/cpuinfo`.
    pub cpu_model: String,
    /// Cores the process may run on.
    pub nproc: usize,
    /// `MemTotal` in kB.
    pub mem_total_kb: u64,
    /// `release` or `debug`.
    pub profile: &'static str,
}

impl HostStamp {
    /// Reads the stamp of the running host. `root` is the checkout root.
    pub fn current(root: &Path) -> Self {
        let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
        let cpu_model = cpuinfo
            .lines()
            .find(|l| l.starts_with("model name"))
            .and_then(|l| l.split_once(':'))
            .map(|(_, v)| v.trim().to_string())
            .unwrap_or_else(|| "unknown".into());
        HostStamp {
            git_rev: git_rev(root).unwrap_or_else(|| "unknown".into()),
            cpu_model,
            nproc: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            mem_total_kb: meminfo_kb("MemTotal:").unwrap_or(0),
            profile: if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            },
        }
    }

    /// Hash of everything but the git revision: results from one host and
    /// build profile share it across commits.
    pub fn fingerprint(&self) -> String {
        let mut h = Fnv64::new();
        h.str(&self.cpu_model);
        h.u64(self.nproc as u64);
        h.u64(self.mem_total_kb);
        h.str(self.profile);
        format!("{:016x}", h.finish())
    }

    /// The stamp as a JSON object, fingerprint included.
    pub fn to_json(&self) -> Node {
        json::obj(vec![
            ("git_rev", json::string(&self.git_rev)),
            ("cpu_model", json::string(&self.cpu_model)),
            ("nproc", json::uint(self.nproc as u64)),
            ("mem_total_kb", json::uint(self.mem_total_kb)),
            ("profile", json::string(self.profile)),
            ("fingerprint", json::string(&self.fingerprint())),
        ])
    }
}

/// Resolves `.git/HEAD` by hand: the benchmark may run where no `git`
/// binary is installed.
fn git_rev(root: &Path) -> Option<String> {
    let git = root.join(".git");
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(rev) = std::fs::read_to_string(git.join(reference)) {
        return Some(rev.trim().to_string());
    }
    let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
    packed
        .lines()
        .find(|l| l.ends_with(reference))
        .and_then(|l| l.split_whitespace().next())
        .map(str::to_string)
}

/// A `/proc/meminfo` field in kB.
pub fn meminfo_kb(field: &str) -> Option<u64> {
    proc_field_kb("/proc/meminfo", field)
}

/// A `/proc/self/status` field in kB (`VmHWM:`, `VmRSS:`).
pub fn status_kb(field: &str) -> Option<u64> {
    proc_field_kb("/proc/self/status", field)
}

fn proc_field_kb(path: &str, field: &str) -> Option<u64> {
    let text = std::fs::read_to_string(path).ok()?;
    let line = text.lines().find(|l| l.starts_with(field))?;
    line.split_whitespace().nth(1)?.parse().ok()
}
