//! Facts about the host a result was measured on. Two results compare
//! only when these agree, so they travel with every result.

use std::path::Path;
use std::process::Command;

use crate::json;

/// Hardware threads the process may use (what the engine's default
/// `threads: 0` resolves to).
pub fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Filesystem type holding `path`, from the longest matching mount point
/// in `/proc/mounts`; "unknown" off Linux.
pub fn fs_type(path: &Path) -> String {
    let path = path.canonicalize().unwrap_or_else(|_| path.to_path_buf());
    let mounts = std::fs::read_to_string("/proc/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let (_, mount, ty) = (f.next()?, f.next()?, f.next()?);
            path.starts_with(mount)
                .then(|| (mount.len(), ty.to_string()))
        })
        .max_by_key(|(len, _)| *len)
        .map_or_else(|| "unknown".to_string(), |(_, ty)| ty)
}

/// Commit the working directory is at, read from `.git` without running
/// git; "none" in an exported checkout.
fn git_rev() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    let rev = match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(Path::new(".git").join(r)).unwrap_or_default(),
        None => head.to_string(),
    };
    let rev = rev.trim();
    if rev.is_empty() {
        "none".to_string()
    } else {
        rev.chars().take(12).collect()
    }
}

fn rustc_version() -> String {
    Command::new("rustc")
        .arg("-V")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Peak resident set of this process in MiB (`VmHWM`); 0 off Linux.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// `SWAN_*` variables silently change engine defaults (threads, columnar,
/// pager, scale), so a run with any of them set measures another system.
pub fn swan_env_vars() -> Vec<String> {
    let mut v: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("SWAN_"))
        .collect();
    v.sort();
    v
}

/// The host and run parameters as one JSON object.
pub fn facts_json(tmp: &Path, run: &[(&str, String)]) -> String {
    let mut fields = vec![
        ("nproc", json::number(nproc() as f64)),
        ("tmp_fs", json::string(&fs_type(tmp))),
        ("git_rev", json::string(&git_rev())),
        ("rustc", json::string(&rustc_version())),
    ];
    fields.extend(run.iter().map(|(k, v)| (*k, v.clone())));
    json::object(&fields)
}
