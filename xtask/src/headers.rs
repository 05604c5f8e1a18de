//! The lint-header hardening pass: every crate root pins its unsafe policy.
//!
//! Default policy is `#![forbid(unsafe_code)]` — forbid cannot be overridden
//! by an inner `#[allow]`, so it is a whole-crate proof of zero unsafe. The
//! few crates whose job *is* unsafe (the AVX2 kernels in `rfdsp`, the checker
//! shims in `conc`) instead carry
//! `#![deny(unsafe_code)]` (each site opts in with a scoped `#[allow]`)
//! **plus** `#![deny(unsafe_op_in_unsafe_fn)]` so `unsafe fn` bodies still
//! need explicit `unsafe {}` blocks around each dangerous operation.

use std::path::Path;

use crate::walk;

/// Workspace-relative crate directories permitted to contain unsafe code.
/// Everything else must forbid it outright.
const UNSAFE_CRATES: &[&str] = &["crates/rfdsp", "crates/compat/conc"];

pub struct HeaderReport {
    pub checked: usize,
    pub violations: Vec<String>,
}

/// Checks the crate-root headers of every workspace package.
pub fn check(root: &Path) -> HeaderReport {
    let mut checked = 0usize;
    let mut violations = Vec::new();
    for manifest in walk::crate_manifests(root) {
        let crate_dir = manifest.parent().expect("manifest has a directory");
        let rel_dir = crate_dir
            .strip_prefix(root)
            .unwrap_or(crate_dir)
            .to_string_lossy()
            .replace('\\', "/");
        let unsafe_allowed = UNSAFE_CRATES.contains(&rel_dir.as_str());
        for entry in ["src/lib.rs", "src/main.rs"] {
            let path = crate_dir.join(entry);
            let Ok(src) = std::fs::read_to_string(&path) else {
                continue;
            };
            checked += 1;
            let rel = format!("{rel_dir}/{entry}")
                .trim_start_matches('/')
                .to_string();
            check_root(&rel, &src, unsafe_allowed, &mut violations);
        }
    }
    HeaderReport {
        checked,
        violations,
    }
}

fn check_root(rel: &str, src: &str, unsafe_allowed: bool, violations: &mut Vec<String>) {
    let has = |attr: &str| src.lines().any(|l| l.trim() == attr);
    if unsafe_allowed {
        if !has("#![deny(unsafe_code)]") {
            violations.push(format!(
                "{rel}: unsafe-bearing crate must carry #![deny(unsafe_code)] (scoped allows per site)"
            ));
        }
        if !has("#![deny(unsafe_op_in_unsafe_fn)]") {
            violations.push(format!(
                "{rel}: unsafe-bearing crate must carry #![deny(unsafe_op_in_unsafe_fn)]"
            ));
        }
    } else if !has("#![forbid(unsafe_code)]") {
        violations.push(format!("{rel}: crate must carry #![forbid(unsafe_code)]"));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forbid_policy_flags_missing_header() {
        let mut v = Vec::new();
        check_root(
            "crates/obs/src/lib.rs",
            "//! docs\npub fn f() {}\n",
            false,
            &mut v,
        );
        assert_eq!(v.len(), 1);
        assert!(v[0].contains("forbid(unsafe_code)"));
    }

    #[test]
    fn forbid_policy_accepts_header() {
        let mut v = Vec::new();
        check_root(
            "crates/obs/src/lib.rs",
            "//! docs\n#![forbid(unsafe_code)]\npub fn f() {}\n",
            false,
            &mut v,
        );
        assert!(v.is_empty());
    }

    #[test]
    fn unsafe_crate_needs_both_deny_headers() {
        let mut v = Vec::new();
        check_root(
            "crates/rfdsp/src/lib.rs",
            "#![deny(unsafe_code)]\n",
            true,
            &mut v,
        );
        assert_eq!(v.len(), 1);
        assert!(v[0].contains("unsafe_op_in_unsafe_fn"));
    }

    #[test]
    fn unsafe_crate_with_both_headers_passes() {
        let mut v = Vec::new();
        check_root(
            "crates/rfdsp/src/lib.rs",
            "#![deny(unsafe_code)]\n#![deny(unsafe_op_in_unsafe_fn)]\n",
            true,
            &mut v,
        );
        assert!(v.is_empty());
    }
}
