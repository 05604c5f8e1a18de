//! The atomic-ordering audit: `Ordering::Relaxed` is confined to an allowlist.
//!
//! Relaxed is correct for pure monotonic counters (stats that no control flow
//! depends on) and for claim cursors whose RMW atomicity alone is the
//! protocol — and nowhere else. A `Relaxed` appearing
//! in new concurrent logic is the classic "it passed the stress test" bug, so
//! the audit makes it a build failure: either the module belongs on the
//! allowlist (a review decision) or the ordering must be strengthened.

use crate::mask::mask;

/// Modules where `Ordering::Relaxed` is pre-justified:
///
/// * `engine/src/pool.rs` — `run_claiming`'s claim cursor and stop flag: the
///   cursor hands out distinct indices by RMW atomicity alone, and the stop
///   flag is a best-effort hint (in-flight items finish regardless); the
///   scope join publishes every result.
pub const RELAXED_ALLOWLIST: &[&str] = &["crates/engine/src/pool.rs"];

/// A `Relaxed` outside the allowlist.
#[derive(Debug)]
pub struct Violation {
    pub file: String,
    pub line: usize,
    pub context: String,
}

/// Scan result for one file.
pub struct Found {
    /// All `Ordering::Relaxed` sites seen (allowlisted or not).
    pub total: usize,
    pub violations: Vec<Violation>,
}

/// Scans one file; `rel` is its workspace-relative path.
pub fn scan_file(rel: &str, src: &str) -> Found {
    let masked = mask(src);
    let exempt_file =
        RELAXED_ALLOWLIST.contains(&rel) || rel.contains("/tests/") || rel.contains("/benches/");
    // `#[cfg(test)] mod …` heuristic: unit-test modules sit at the bottom of
    // the file; everything from that marker down is test code.
    let test_mod_start = find_test_mod(&masked);
    let mut total = 0usize;
    let mut violations = Vec::new();
    for (idx, line) in masked.lines().enumerate() {
        let mut from = 0usize;
        while let Some(found) = line[from..].find("Ordering::Relaxed") {
            total += 1;
            let exempt = exempt_file || test_mod_start.is_some_and(|start| idx >= start);
            if !exempt {
                violations.push(Violation {
                    file: rel.to_string(),
                    line: idx + 1,
                    context: src.lines().nth(idx).unwrap_or("").trim().to_string(),
                });
            }
            from += found + "Ordering::Relaxed".len();
        }
    }
    Found { total, violations }
}

/// Finds the 0-based line of a `#[cfg(test)]` attribute directly above a
/// `mod` declaration, if any.
fn find_test_mod(masked: &str) -> Option<usize> {
    let lines: Vec<&str> = masked.lines().collect();
    for (i, line) in lines.iter().enumerate() {
        if line.trim() == "#[cfg(test)]"
            && lines
                .get(i + 1)
                .is_some_and(|next| next.trim_start().starts_with("mod "))
        {
            return Some(i);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relaxed_outside_allowlist_is_flagged() {
        let src = "fn f(a: &AtomicUsize) { a.store(1, Ordering::Relaxed); }\n";
        let found = scan_file("crates/obs/src/lib.rs", src);
        assert_eq!(found.total, 1);
        assert_eq!(found.violations.len(), 1);
        assert_eq!(found.violations[0].line, 1);
    }

    #[test]
    fn allowlisted_module_passes() {
        let src = "let item = cursor.fetch_add(1, Ordering::Relaxed);\n";
        let found = scan_file("crates/engine/src/pool.rs", src);
        assert_eq!(found.total, 1);
        assert!(found.violations.is_empty());
    }

    #[test]
    fn cfg_test_module_is_exempt() {
        let src = "fn prod() {}\n#[cfg(test)]\nmod tests {\n    fn t(a: &AtomicUsize) { a.load(Ordering::Relaxed); }\n}\n";
        let found = scan_file("crates/obs/src/lib.rs", src);
        assert_eq!(found.total, 1);
        assert!(found.violations.is_empty(), "{:?}", found.violations);
    }

    #[test]
    fn relaxed_in_comments_and_strings_is_ignored() {
        let src = "// Ordering::Relaxed would be wrong here\nlet s = \"Ordering::Relaxed\";\n";
        let found = scan_file("crates/obs/src/lib.rs", src);
        assert_eq!(found.total, 0);
    }

    #[test]
    fn integration_tests_are_exempt() {
        let src = "calls.fetch_add(1, Ordering::Relaxed);\n";
        let found = scan_file("crates/core/tests/model_alloc.rs", src);
        assert!(found.violations.is_empty());
    }
}
