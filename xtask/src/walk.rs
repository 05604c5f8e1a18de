//! Workspace source discovery (no external walkdir dependency).

use std::path::{Path, PathBuf};

/// All `.rs` files in the workspace, sorted, skipping build output and VCS
/// metadata.
pub fn rust_sources(root: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    collect(root, &mut out);
    out.sort();
    out
}

fn collect(dir: &Path, out: &mut Vec<PathBuf>) {
    let entries = match std::fs::read_dir(dir) {
        Ok(e) => e,
        Err(_) => return,
    };
    for entry in entries.flatten() {
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name == "target" || name.starts_with('.') {
                continue;
            }
            collect(&path, out);
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
}

/// All crate manifests of this workspace (`Cargo.toml` declaring a
/// `[package]`), sorted. A package nested under the root that declares its own
/// `[workspace]` (the standalone `perfbench/` harness) is a separate workspace
/// and is skipped.
pub fn crate_manifests(root: &Path) -> Vec<PathBuf> {
    let mut all = Vec::new();
    collect_manifests(root, &mut all);
    all.sort();
    let root_manifest = root.join("Cargo.toml");
    all.retain(|p| {
        std::fs::read_to_string(p).is_ok_and(|s| {
            let has = |table: &str| s.lines().any(|l| l.trim() == table);
            has("[package]") && (*p == root_manifest || !has("[workspace]"))
        })
    });
    all
}

fn collect_manifests(dir: &Path, out: &mut Vec<PathBuf>) {
    let entries = match std::fs::read_dir(dir) {
        Ok(e) => e,
        Err(_) => return,
    };
    for entry in entries.flatten() {
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name == "target" || name.starts_with('.') {
                continue;
            }
            collect_manifests(&path, out);
        } else if name == "Cargo.toml" {
            out.push(path);
        }
    }
}
