//! The command line over `cprecycle_bench::ledger`:
//!
//! ```text
//! check_perfbench record --pr N <untraced.out> <traced.out>   # prints one ledger line
//! check_perfbench gate <ledger.jsonl> <untraced.out> <traced.out>
//! check_perfbench table <ledger.jsonl>                        # the README tables
//! ```
//!
//! The `.out` files are the stdout of `python3 perfbench/run.py` with `--trace 0`
//! and `--trace 1`. `gate` exits non-zero on any failed check.

use cprecycle_bench::ledger;
use std::process::ExitCode;

fn run(args: &[&str]) -> Result<String, String> {
    let read = |path: &str| std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"));
    let lines =
        |tag: &str, lines: Vec<String>| lines.iter().map(|l| format!("{tag} {l}\n")).collect();
    match *args {
        ["record", "--pr", pr, u, t] => {
            let pr = pr.parse().map_err(|_| format!("bad --pr {pr}"))?;
            Ok(ledger::record(pr, &read(u)?, &read(t)?)? + "\n")
        }
        ["gate", path, u, t] => match ledger::gate(&read(path)?, &read(u)?, &read(t)?) {
            Ok(passed) => Ok(lines("ok  ", passed)),
            Err(failed) => Err(lines("FAIL", failed)),
        },
        ["table", path] => ledger::table(&read(path)?),
        _ => Err(
            "usage: check_perfbench record --pr N <untraced.out> <traced.out>
       check_perfbench gate <ledger.jsonl> <untraced.out> <traced.out>
       check_perfbench table <ledger.jsonl>\n"
                .into(),
        ),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args.iter().map(String::as_str).collect::<Vec<_>>()) {
        Ok(out) => print!("{out}"),
        Err(e) => {
            eprint!("{}", if e.ends_with('\n') { e } else { e + "\n" });
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}
