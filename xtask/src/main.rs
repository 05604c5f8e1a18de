//! Workspace automation (`cargo xtask <command>`).
//!
//! `loc` prints the Rust code-line counts under `crates/` in three buckets
//! (non-test, test, bench; see [`mod@loc`]), one row per crate and then the totals,
//! so a change's size is measured the same way every time.
//!
//! `lint` is the static-analysis gate CI runs on every push, covering what
//! rustc's lint levels cannot express on their own:
//!
//! * **unsafe inventory** ([`inventory`]) — every `unsafe` occurrence in the
//!   tree (blocks, fns, impls, traits) must justify itself with a `// SAFETY:`
//!   comment (or a `# Safety` doc section for `unsafe fn`). The full inventory
//!   is emitted as machine-readable JSON so reviewers can diff the unsafe
//!   surface between releases; an undocumented site fails the build.
//! * **atomic-ordering audit** ([`ordering`]) — `Ordering::Relaxed` is allowed
//!   only in the allowlisted modules and in test code.
//!   A Relaxed sneaking into new concurrent logic fails the build and must
//!   either be justified (add the module to the allowlist in review) or fixed.
//! * **lint-header hardening** ([`headers`]) — every crate root must pin its
//!   unsafe policy: `#![forbid(unsafe_code)]` by default, or for the few
//!   crates with a justified unsafe core (`rfdsp`, `conc`) the pair
//!   `#![deny(unsafe_code)]` + `#![deny(unsafe_op_in_unsafe_fn)]`.
//!
//! Run locally with `cargo xtask lint`; CI uploads the JSON report
//! (`UNSAFE_inventory.json`) as its own `unsafe-inventory-json` artifact.

#![forbid(unsafe_code)]

mod headers;
mod inventory;
mod loc;
mod mask;
mod ordering;
mod walk;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    match args.next().as_deref() {
        Some("lint") => {
            let mut report_path: Option<PathBuf> = None;
            while let Some(arg) = args.next() {
                match arg.as_str() {
                    "--report" => match args.next() {
                        Some(p) => report_path = Some(PathBuf::from(p)),
                        None => {
                            eprintln!("--report requires a path");
                            return ExitCode::FAILURE;
                        }
                    },
                    other => {
                        eprintln!("unknown lint option: {other}");
                        return ExitCode::FAILURE;
                    }
                }
            }
            lint(report_path)
        }
        Some("loc") => match args.next() {
            None => loc(),
            Some(other) => {
                eprintln!("unknown loc option: {other}");
                ExitCode::FAILURE
            }
        },
        Some(other) => {
            eprintln!("unknown xtask command: {other}\n{USAGE}");
            ExitCode::FAILURE
        }
        None => {
            eprintln!("{USAGE}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str =
    "usage: cargo xtask lint [--report UNSAFE_inventory.json]\n       cargo xtask loc";

/// Locates the workspace root (the directory holding the top-level
/// `Cargo.toml` with a `[workspace]` table) from the xtask binary's own
/// manifest dir, so the command works from any CWD inside the tree.
fn workspace_root() -> PathBuf {
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    manifest
        .parent()
        .expect("xtask lives one level under the workspace root")
        .to_path_buf()
}

fn loc() -> ExitCode {
    let root = workspace_root();
    let mut per_crate: BTreeMap<String, loc::Counts> = BTreeMap::new();
    for file in walk::rust_sources(&root.join("crates")) {
        let src = match std::fs::read_to_string(&file) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("error: cannot read {}: {e}", file.display());
                return ExitCode::FAILURE;
            }
        };
        let rel = file
            .strip_prefix(&root)
            .unwrap_or(&file)
            .to_string_lossy()
            .replace('\\', "/");
        per_crate
            .entry(loc::crate_of(&rel))
            .or_default()
            .add(loc::count_file(&rel, &src));
    }
    print!("{}", loc::report(&per_crate));
    ExitCode::SUCCESS
}

fn lint(report_path: Option<PathBuf>) -> ExitCode {
    let root = workspace_root();
    let files = walk::rust_sources(&root);
    println!("xtask lint: scanning {} Rust sources", files.len());

    let mut failed = false;

    // Pass 1: unsafe inventory.
    let mut entries = Vec::new();
    for file in &files {
        let src = match std::fs::read_to_string(file) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("error: cannot read {}: {e}", file.display());
                return ExitCode::FAILURE;
            }
        };
        let rel = file
            .strip_prefix(&root)
            .unwrap_or(file)
            .to_string_lossy()
            .replace('\\', "/");
        entries.extend(inventory::scan_file(&rel, &src));
    }
    let undocumented: Vec<_> = entries.iter().filter(|e| !e.documented).collect();
    println!(
        "  unsafe inventory: {} sites, {} undocumented",
        entries.len(),
        undocumented.len()
    );
    for e in &undocumented {
        eprintln!(
            "  error[unsafe-inventory]: {}:{} `{}` has no SAFETY justification: {}",
            e.file, e.line, e.kind, e.context
        );
    }
    failed |= !undocumented.is_empty();

    // Pass 2: atomic-ordering audit.
    let mut relaxed_violations = Vec::new();
    let mut relaxed_total = 0usize;
    for file in &files {
        let src = std::fs::read_to_string(file).expect("read checked in pass 1");
        let rel = file
            .strip_prefix(&root)
            .unwrap_or(file)
            .to_string_lossy()
            .replace('\\', "/");
        let found = ordering::scan_file(&rel, &src);
        relaxed_total += found.total;
        relaxed_violations.extend(found.violations);
    }
    println!(
        "  atomic-ordering audit: {} Relaxed sites, {} outside the allowlist",
        relaxed_total,
        relaxed_violations.len()
    );
    for v in &relaxed_violations {
        eprintln!(
            "  error[ordering-audit]: {}:{} Ordering::Relaxed outside the allowlist: {}",
            v.file, v.line, v.context
        );
    }
    failed |= !relaxed_violations.is_empty();

    // Pass 3: lint-header hardening.
    let header_violations = headers::check(&root);
    println!(
        "  lint headers: {} crate roots checked, {} violations",
        header_violations.checked,
        header_violations.violations.len()
    );
    for v in &header_violations.violations {
        eprintln!("  error[lint-headers]: {v}");
    }
    failed |= !header_violations.violations.is_empty();

    // Machine-readable report (written even on failure, so CI uploads the
    // evidence for the red build too).
    if let Some(path) = report_path {
        let report = report_json(&entries, &relaxed_violations, &header_violations);
        if let Err(e) = std::fs::write(&path, report.pretty() + "\n") {
            eprintln!("error: cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        println!("  report written to {}", path.display());
    }

    if failed {
        eprintln!("xtask lint: FAILED");
        ExitCode::FAILURE
    } else {
        println!("xtask lint: clean");
        ExitCode::SUCCESS
    }
}

fn report_json(
    entries: &[inventory::UnsafeSite],
    relaxed: &[ordering::Violation],
    headers: &headers::HeaderReport,
) -> cpjson::Value {
    use cpjson::{object, Value};
    let sites: Vec<Value> = entries
        .iter()
        .map(|e| {
            object(vec![
                ("file", Value::Str(e.file.clone())),
                ("line", Value::Int(e.line as i128)),
                ("kind", Value::Str(e.kind.to_string())),
                ("documented", Value::Bool(e.documented)),
                ("context", Value::Str(e.context.clone())),
            ])
        })
        .collect();
    let ordering: Vec<Value> = relaxed
        .iter()
        .map(|v| {
            object(vec![
                ("file", Value::Str(v.file.clone())),
                ("line", Value::Int(v.line as i128)),
                ("context", Value::Str(v.context.clone())),
            ])
        })
        .collect();
    let header_violations: Vec<Value> = headers
        .violations
        .iter()
        .map(|v| Value::Str(v.clone()))
        .collect();
    object(vec![
        ("tool", Value::Str("cargo xtask lint".into())),
        (
            "unsafe_inventory",
            object(vec![
                ("total", Value::Int(sites.len() as i128)),
                (
                    "undocumented",
                    Value::Int(entries.iter().filter(|e| !e.documented).count() as i128),
                ),
                ("sites", Value::Array(sites)),
            ]),
        ),
        (
            "ordering_audit",
            object(vec![
                ("violations", Value::Array(ordering)),
                (
                    "allowlist",
                    Value::Array(
                        ordering::RELAXED_ALLOWLIST
                            .iter()
                            .map(|p| Value::Str((*p).into()))
                            .collect(),
                    ),
                ),
            ]),
        ),
        (
            "lint_headers",
            object(vec![
                ("checked", Value::Int(headers.checked as i128)),
                ("violations", Value::Array(header_violations)),
            ]),
        ),
    ])
}
