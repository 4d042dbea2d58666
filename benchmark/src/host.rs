//! The host fingerprint every result carries, and the process's peak
//! memory.

use crate::json::Json;
use std::path::Path;
use std::process::Command;

/// Where a result was measured. A timing means nothing without it.
#[derive(Debug, Clone, PartialEq)]
pub struct Host {
    /// `std::thread::available_parallelism`.
    pub nproc: usize,
    /// `parallel::max_threads()`: the cap the program's fork-join layer
    /// runs under, left at its default (what users get).
    pub host_threads: usize,
    pub cpu: String,
    pub rustc: String,
    pub commit: String,
}

impl Host {
    pub fn detect() -> Self {
        Self {
            nproc: std::thread::available_parallelism().map_or(1, usize::from),
            host_threads: tatim::parallel::max_threads(),
            cpu: cpu_model(),
            rustc: rustc_version(),
            commit: git_commit(Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/.."))),
        }
    }

    pub fn to_json(&self) -> Json {
        Json::obj([
            ("nproc", Json::Num(self.nproc as f64)),
            ("host_threads", Json::Num(self.host_threads as f64)),
            ("cpu", Json::str(&self.cpu)),
            ("rustc", Json::str(&self.rustc)),
            ("commit", Json::str(&self.commit)),
        ])
    }
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|s| s.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

fn rustc_version() -> String {
    Command::new("rustc")
        .arg("-V")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
}

/// The checked-out commit, read from `.git` directly (a checkout exported
/// without its repository reports `unknown`; no `git` process is started,
/// so nothing outside the checkout is searched).
fn git_commit(root: &Path) -> String {
    let read = |rel: &str| std::fs::read_to_string(root.join(".git").join(rel)).ok();
    let Some(head) = read("HEAD") else { return "unknown".to_string() };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else { return head.to_string() };
    if let Some(hash) = read(reference) {
        return hash.trim().to_string();
    }
    read("packed-refs")
        .and_then(|packed| {
            packed
                .lines()
                .find_map(|l| l.strip_suffix(reference).map(|hash| hash.trim().to_string()))
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Peak resident set (`VmHWM`) of this process in MiB, `0.0` where
/// `/proc` does not provide it.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fingerprint_is_populated() {
        let host = Host::detect();
        assert!(host.nproc >= 1 && host.host_threads >= 1);
        assert!(!host.cpu.is_empty() && !host.rustc.is_empty() && !host.commit.is_empty());
        assert!(peak_rss_mib() > 0.0);
    }

    #[test]
    fn commit_resolves_loose_and_packed_refs() {
        let dir = crate::workloads::out_dir().join(format!("test-git-{}", std::process::id()));
        let git = dir.join(".git");
        std::fs::create_dir_all(git.join("refs/heads")).unwrap();
        assert_eq!(git_commit(&dir), "unknown");
        std::fs::write(git.join("HEAD"), "ref: refs/heads/main\n").unwrap();
        std::fs::write(git.join("packed-refs"), "# pack-refs\nabc123 refs/heads/main\n").unwrap();
        assert_eq!(git_commit(&dir), "abc123");
        std::fs::write(git.join("refs/heads/main"), "def456\n").unwrap();
        assert_eq!(git_commit(&dir), "def456");
        std::fs::write(git.join("HEAD"), "0123abcd\n").unwrap();
        assert_eq!(git_commit(&dir), "0123abcd");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
