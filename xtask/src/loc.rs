//! The code-line count behind `cargo xtask loc`.
//!
//! A line counts when its [`mask`]ed form keeps a non-blank character, so blank
//! lines, comments and doc comments never count (nor does a line that holds
//! only the inside of a multi-line string literal). Every Rust source under
//! `crates/` falls into one of three buckets: **bench** for files under a
//! `benches/` directory, **test** for files under a `tests/` directory and for
//! each `#[cfg(test)]` item elsewhere, and **non-test** for the rest. [`report`]
//! prints one row per crate ([`crate_of`]) above the workspace totals.

use crate::mask::mask;
use std::collections::BTreeMap;

/// Code lines per bucket.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Counts {
    pub non_test: usize,
    pub test: usize,
    pub bench: usize,
}

impl Counts {
    pub fn total(&self) -> usize {
        self.non_test + self.test + self.bench
    }

    pub fn add(&mut self, other: Counts) {
        self.non_test += other.non_test;
        self.test += other.test;
        self.bench += other.bench;
    }
}

/// Counts one file; `rel` is its workspace-relative path, `/`-separated.
pub fn count_file(rel: &str, src: &str) -> Counts {
    let (code, test) = split_cfg_test(&mask(src));
    let under = |dir: &str| rel.split('/').any(|part| part == dir);
    if under("benches") {
        Counts {
            bench: code + test,
            ..Counts::default()
        }
    } else if under("tests") {
        Counts {
            test: code + test,
            ..Counts::default()
        }
    } else {
        Counts {
            non_test: code,
            test,
            ..Counts::default()
        }
    }
}

/// The crate a workspace-relative source path belongs to, named by its directory
/// under `crates/` (`core`, `compat/rand`): the path up to the first `src`,
/// `tests`, `benches` or `examples` component, the roots of a Cargo package's
/// targets.
pub fn crate_of(rel: &str) -> String {
    let parts: Vec<&str> = rel.split('/').collect();
    let skip = usize::from(parts.first() == Some(&"crates"));
    let end = parts
        .iter()
        .position(|part| matches!(*part, "src" | "tests" | "benches" | "examples"))
        .unwrap_or(parts.len() - 1);
    parts[skip..end.max(skip)].join("/")
}

/// The `cargo xtask loc` table: a non-test/test/bench row per crate, then the
/// workspace totals.
pub fn report(per_crate: &BTreeMap<String, Counts>) -> String {
    let mut totals = Counts::default();
    let mut out =
        String::from("Rust code lines under crates/ (blank and comment-only lines excluded):\n");
    out += &format!(
        "  {:<16} {:>8} {:>7} {:>7}\n",
        "crate", "non-test", "test", "bench"
    );
    for (name, c) in per_crate {
        out += &format!(
            "  {:<16} {:>8} {:>7} {:>7}\n",
            name, c.non_test, c.test, c.bench
        );
        totals.add(*c);
    }
    out += &format!("  non-test {:>7}\n", totals.non_test);
    out += &format!("  test     {:>7}\n", totals.test);
    out += &format!("  bench    {:>7}\n", totals.bench);
    out += &format!("  total    {:>7}\n", totals.total());
    out
}

/// `(outside, inside)` code lines of masked source, split by whether the line
/// lies within a `#[cfg(test)]` item (its attribute line included).
fn split_cfg_test(masked: &str) -> (usize, usize) {
    const ATTR: &str = "#[cfg(test)]";
    let line_of = |offset: usize| masked[..offset].matches('\n').count();
    let mut in_test = vec![false; masked.lines().count()];
    let mut search = 0usize;
    while let Some(found) = masked[search..].find(ATTR) {
        let start = search + found;
        let end = item_end(masked.as_bytes(), start + ATTR.len());
        let last = line_of(end.saturating_sub(1).max(start));
        for flag in &mut in_test[line_of(start)..=last] {
            *flag = true;
        }
        search = end;
    }
    masked
        .lines()
        .zip(&in_test)
        .filter(|(line, _)| !line.trim().is_empty())
        .fold((0, 0), |(code, test), (_, &inside)| {
            if inside {
                (code, test + 1)
            } else {
                (code + 1, test)
            }
        })
}

/// Offset just past the item that starts at `from`: its closing brace, or a
/// `;` outside any bracket for a braceless item. Comments and literals are
/// already masked, so every bracket seen is code.
fn item_end(bytes: &[u8], from: usize) -> usize {
    let mut depth = 0usize;
    for (i, &b) in bytes.iter().enumerate().skip(from) {
        match b {
            b'{' | b'(' | b'[' => depth += 1,
            b')' | b']' => depth = depth.saturating_sub(1),
            b'}' => {
                depth = depth.saturating_sub(1);
                if depth == 0 {
                    return i + 1;
                }
            }
            b';' if depth == 0 => return i + 1,
            _ => {}
        }
    }
    bytes.len()
}

#[cfg(test)]
mod tests {
    use super::*;

    const FIXTURE: &str = r#"//! Module docs do not count.

/// Nor do doc comments.
pub fn f(x: u32) -> u32 {
    // A comment line.
    let s = "}"; /* a { in a block comment */
    x + s.len() as u32
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn t() {
        assert_eq!(f(1), 2);
    }
}

#[cfg(test)]
use std::fmt;

pub const AFTER: u8 = 1;
"#;

    #[test]
    fn splits_cfg_test_items_and_skips_blank_and_comment_lines() {
        // Non-test: `pub fn f`, `let s`, `x + …`, `}`, `pub const AFTER`.
        // Test: the module's 8 code lines, then the attribute and its `use`.
        let want = Counts {
            non_test: 5,
            test: 10,
            bench: 0,
        };
        assert_eq!(count_file("crates/core/src/lib.rs", FIXTURE), want);
        assert_eq!(want.total(), 15);
    }

    #[test]
    fn buckets_by_directory() {
        let whole = 15;
        let tests = count_file("crates/core/tests/suite.rs", FIXTURE);
        assert_eq!((tests.non_test, tests.test, tests.bench), (0, whole, 0));
        let bench = count_file("crates/bench/benches/model.rs", FIXTURE);
        assert_eq!((bench.non_test, bench.test, bench.bench), (0, 0, whole));
        let mut sum = tests;
        sum.add(bench);
        assert_eq!(sum.total(), 2 * whole);
    }

    #[test]
    fn rows_group_files_by_crate_above_the_totals() {
        assert_eq!(crate_of("crates/core/src/lib.rs"), "core");
        assert_eq!(crate_of("crates/core/tests/suite.rs"), "core");
        assert_eq!(crate_of("crates/bench/src/bin/fig8.rs"), "bench");
        assert_eq!(crate_of("crates/compat/rand/src/lib.rs"), "compat/rand");
        let mut per_crate: BTreeMap<String, Counts> = BTreeMap::new();
        for rel in [
            "crates/core/src/lib.rs",
            "crates/core/tests/suite.rs",
            "crates/bench/benches/model.rs",
        ] {
            per_crate
                .entry(crate_of(rel))
                .or_default()
                .add(count_file(rel, FIXTURE));
        }
        let text = report(&per_crate);
        let rows: Vec<Vec<&str>> = text
            .lines()
            .map(|l| l.split_whitespace().collect())
            .collect();
        // Header, column titles, one row per crate (sorted), four totals.
        assert_eq!(rows.len(), 2 + 2 + 4, "{text}");
        assert_eq!(rows[2], ["bench", "0", "0", "15"]);
        assert_eq!(rows[3], ["core", "5", "25", "0"]);
        assert_eq!(rows[4], ["non-test", "5"]);
        assert_eq!(rows[7], ["total", "45"]);
    }

    #[test]
    fn an_unclosed_item_runs_to_the_end_of_the_file() {
        let src = "fn a() {}\n#[cfg(test)]\nmod tests {\n    fn b() {}\n";
        assert_eq!(split_cfg_test(&mask(src)), (1, 3));
    }
}
