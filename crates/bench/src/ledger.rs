//! The benchmark ledger `BENCH_perfbench.jsonl`, behind the `check_perfbench` bin.
//!
//! `perfbench` (`python3 perfbench/run.py`) prints `#` lines, among them the header
//! `# perfbench workload=… seed=… seconds=… trace=… smoke=… nproc=… avx2=…`, then
//! one JSON result line. A ledger line joins an untraced run (end-to-end metrics)
//! and a traced run (per-layer metrics) of one workload and seed: `pr`, `workload`,
//! `seed`, `seconds`, `nproc`, `avx2`, `correct`, `attempted` and `failed` (over
//! both runs), `end_to_end` and `per_layer`. The gate holds a run to the latest
//! line for its workload and seed: outcomes must match, and speed is compared as
//! ratios of stage costs from the same traced run, so runner speed cancels.

use cpjson::{FromJson, Value};

/// A speed ratio: its name, the stages summed over the denominator stage, and the
/// largest allowed relative increase over the ledger's ratio.
type Ratio = (&'static str, &'static [&'static str], &'static str, f64);

const DECIDE: &str = "decision.decide.ns_per_sample";
const TRAIN: &str = "interference_model.train.ns_per_sample";
const EXTRACT: &str = "segments.extract.ns_per_sample";
const BITS: &str = "viterbi.bits.ns_per_sample";
const SYNC: &str = "receiver.sync.ns_per_sample";
const SERVICE: &str = "server.service.ns_per_sample";
const LINK_RATIO: &str = "(decide + model_train + extract) / bits";
const CANDIDATES: &str = "decision.candidates_per_bin";

/// Per workload: the per-layer counts that must match the ledger within
/// [`COUNT_TOLERANCE`], and the speed ratios. `psr` must match on every workload.
const GATES: &[(&str, &[&str], &[Ratio])] = &[
    (
        "link_interfered",
        &[CANDIDATES, "interference_model.samples_per_bin"],
        &[(LINK_RATIO, &[DECIDE, TRAIN, EXTRACT], BITS, 0.15)],
    ),
    (
        "server_fanin",
        &[],
        // `bits / sync` catches a slower Viterbi, which lowers `service / bits`.
        &[
            ("service / bits", &[SERVICE], BITS, 0.25),
            ("bits / sync", &[BITS], SYNC, 0.25),
        ],
    ),
];

/// How far a per-layer count may stray from the ledger: `perfbench` averages it
/// over every traced decode, and the traced half stops part-way through a pass.
const COUNT_TOLERANCE: f64 = 0.01;

/// The value of `key=` in a `perfbench` header line.
fn header_field<'a>(header: &'a str, key: &str) -> Result<&'a str, String> {
    let mut fields = header.split(' ').filter_map(|kv| kv.split_once('='));
    let value = fields.find(|&(k, _)| k == key).map(|(_, v)| v);
    value.ok_or_else(|| format!("header has no {key}="))
}

/// A `perfbench` output's header line and its JSON result line.
fn parse_output(text: &str) -> Result<(&str, Value), String> {
    let header = text.lines().find_map(|l| l.strip_prefix("# perfbench "));
    let is_result = |l: &&str| !l.is_empty() && !l.starts_with('#');
    let result = Value::parse(text.lines().rfind(is_result).ok_or("no result line")?);
    let result = result.map_err(|e| format!("result line: {e}"))?;
    Ok((header.ok_or("no `# perfbench` header line")?, result))
}

/// Joins an untraced and a traced output of one workload and seed into a ledger
/// line. Smoke runs are refused: their corpus is not the benchmark's.
fn join(pr: u64, untraced: &str, traced: &str) -> Result<Value, String> {
    let (uh, u) = parse_output(untraced).map_err(|e| format!("untraced output: {e}"))?;
    let (th, t) = parse_output(traced).map_err(|e| format!("traced output: {e}"))?;
    if (header_field(uh, "trace")?, header_field(th, "trace")?) != ("0", "1") {
        return Err("expected a --trace 0 output, then a --trace 1 output".into());
    }
    for key in ["workload", "seed", "smoke"] {
        if header_field(uh, key)? != header_field(th, key)? {
            return Err(format!("the two outputs differ in {key}"));
        }
    }
    if header_field(uh, "smoke")? != "false" {
        return Err("a --smoke run is neither recorded nor gated".into());
    }
    let workload = Value::Str(header_field(uh, "workload")?.into());
    let mut line = vec![("pr", Value::Int(pr.into())), ("workload", workload)];
    for key in ["seed", "seconds", "nproc", "avx2"] {
        let value = Value::parse(header_field(uh, key)?);
        line.push((key, value.map_err(|e| format!("header {key}: {e}"))?));
    }
    let json = |e: cpjson::JsonError| format!("result line: {e}");
    let correct = [&u, &t].iter().all(|r| r.field_as("correct") == Ok(true));
    line.push(("correct", Value::Bool(correct)));
    for key in ["attempted", "failed"] {
        let sum = u.field_as::<u64>(key).map_err(json)? + t.field_as::<u64>(key).map_err(json)?;
        line.push((key, Value::Int(sum.into())));
    }
    for (key, run) in [("end_to_end", &u), ("per_layer", &t)] {
        let Ok(Value::Object(metrics)) = run.field("metrics") else {
            return Err("result line: metrics is not an object".into());
        };
        let values = metrics
            .iter()
            .map(|(n, m)| Ok((n.clone(), m.field("value")?.clone())));
        let values = values.collect::<cpjson::Result<_>>().map_err(json)?;
        line.push((key, Value::Object(values)));
    }
    Ok(cpjson::object(line))
}

/// Builds one ledger line from an untraced and a traced `perfbench` output of the
/// same workload and seed. Refuses runs that failed a check.
pub fn record(pr: u64, untraced: &str, traced: &str) -> Result<String, String> {
    let line = join(pr, untraced, traced)?;
    if field(&line, "correct") != "true" || field(&line, "failed") != "0" {
        return Err("only a correct run without failed operations is a record".into());
    }
    Ok(line.compact())
}

/// A top-level field of a ledger line, as JSON text.
fn field(line: &Value, key: &str) -> String {
    line.get(key).map(Value::compact).unwrap_or_default()
}

/// A metric of a ledger line; `group` is `end_to_end` or `per_layer`.
fn metric(line: &Value, group: &str, name: &str) -> Result<f64, String> {
    let value = line.get(group).and_then(|g| g.get(name));
    let value = value.and_then(|v| f64::from_json(v).ok());
    value.ok_or_else(|| format!("no {name}"))
}

fn ratio_of(line: &Value, (_, numerator, denominator, _): &Ratio) -> Result<f64, String> {
    let numerator = numerator.iter().map(|n| metric(line, "per_layer", n));
    let numerator = numerator.sum::<Result<f64, _>>()?;
    match metric(line, "per_layer", denominator)? {
        d if d > 0.0 => Ok(numerator / d),
        _ => Err(format!("{denominator} = 0")),
    }
}

fn parse_ledger(text: &str) -> Result<Vec<Value>, String> {
    let lines = text.lines().enumerate().filter(|(_, l)| !l.is_empty());
    let parse = |(i, l): (usize, &str)| Value::parse(l).map_err(|e| format!("line {}: {e}", i + 1));
    lines.map(parse).collect()
}

/// A ledger line's workload (as JSON text) and seed.
fn key(line: &Value) -> (String, String) {
    (field(line, "workload"), field(line, "seed"))
}

/// Holds an untraced and a traced `perfbench` output to the latest ledger line for
/// their workload and seed. `Ok` lists the checks that passed; `Err` lists every
/// failure, naming the workload, the metric or ratio, and the ledger and run values.
pub fn gate(ledger: &str, untraced: &str, traced: &str) -> Result<Vec<String>, Vec<String>> {
    let run = join(0, untraced, traced).map_err(|e| vec![e])?;
    let (workload, seed) = key(&run);
    let w = workload.trim_matches('"');
    let Some((_, counts, ratios)) = GATES.iter().find(|g| g.0 == w) else {
        return Err(vec![format!("{w}: no gate is declared for this workload")]);
    };
    let lines = parse_ledger(ledger).map_err(|e| vec![format!("ledger {e}")])?;
    let Some(entry) = lines.iter().rev().find(|l| key(l) == key(&run)) else {
        return Err(vec![format!("{w}: the ledger has no line for seed {seed}")]);
    };

    let (mut passed, mut failures) = (vec![], vec![]);
    for (name, want) in [("correct", "true"), ("failed", "0")] {
        let got = field(&run, name);
        if got != want {
            failures.push(format!("{w}: {name}: ledger {want}, run {got}"));
        }
    }
    // (name, ledger value, run value, tolerance, whether any decrease passes)
    let exact = |group: &str, name: &'static str, tolerance| {
        let (l, r) = (metric(entry, group, name), metric(&run, group, name));
        (name, l, r, tolerance, false)
    };
    let mut checks = vec![exact("end_to_end", "psr", 0.0)];
    for &name in counts.iter() {
        checks.push(exact("per_layer", name, COUNT_TOLERANCE));
    }
    for r @ &(name, _, _, tol) in ratios.iter() {
        checks.push((name, ratio_of(entry, r), ratio_of(&run, r), tol, true));
    }
    for (name, l, r, tolerance, one_sided) in checks {
        match (l, r) {
            (Ok(l), Ok(r)) => {
                let change = if r == l { 0.0 } else { r / l - 1.0 };
                let sign = if one_sided { "+" } else { "±" };
                let line = format!(
                    "{w}: {name}: ledger {l}, run {r} ({:+.1}%, tolerance {sign}{}%)",
                    change * 100.0,
                    tolerance * 100.0
                );
                let within = change <= tolerance && (one_sided || change >= -tolerance);
                if within { &mut passed } else { &mut failures }.push(line);
            }
            (Err(e), _) => failures.push(format!("{w}: {name}: the ledger has {e}")),
            (_, Err(e)) => failures.push(format!("{w}: {name}: the run has {e}")),
        }
    }
    failures.is_empty().then_some(passed).ok_or(failures)
}

/// Four significant digits, no exponent; whole numbers print without a fraction.
fn format_value(v: f64) -> String {
    let digits = (3.0 - v.abs().log10().floor()).clamp(0.0, 15.0) as usize;
    format!("{v:.*}", if v == v.trunc() { 0 } else { digits })
}

/// Renders the README performance tables from the latest ledger line of each
/// workload and seed: the end-to-end metrics, then every `*.ns_per_sample` stage.
pub fn table(ledger: &str) -> Result<String, String> {
    let lines = parse_ledger(ledger).map_err(|e| format!("ledger {e}"))?;
    let mut latest: Vec<&Value> = vec![];
    for line in &lines {
        match latest.iter_mut().find(|l| key(l) == key(line)) {
            Some(slot) => *slot = line,
            None => latest.push(line),
        }
    }
    let row = |label: &str, cell: &dyn Fn(&Value) -> String| {
        let cells: String = latest.iter().map(|l| format!(" {} |", cell(l))).collect();
        format!("| {label} |{cells}\n")
    };
    let header = |title: &str| {
        let column = |l: &Value| format!("`{}` seed {}", key(l).0.trim_matches('"'), key(l).1);
        row(title, &column) + &row("---", &|_| "---:".into())
    };
    // Every workload prints every metric, so the first line names the rows.
    let rows = |group: &str, suffix: &str| {
        let Some(Value::Object(metrics)) = latest.first().and_then(|l| l.get(group)) else {
            return String::new();
        };
        let names = metrics.iter().filter(|(n, _)| n.ends_with(suffix));
        let value = |l: &Value, n: &str| metric(l, group, n).map_or("–".into(), format_value);
        let label = |n: &str| format!("`{}`", n.trim_end_matches(suffix));
        let rows = names.map(|(n, _)| row(&label(n), &|l| value(l, n)));
        rows.collect::<String>()
    };
    let mut out = header("End to end");
    for name in ["pr", "seconds", "nproc", "avx2"] {
        out += &row(name, &|l| field(l, name));
    }
    out += &(rows("end_to_end", "") + "\n" + &header("Stage, ns/sample"));
    Ok(out + &rows("per_layer", ".ns_per_sample"))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Metrics of real 50 s seed-1 runs, traced and untraced, trimmed (and rounded).
    const LINK_TRACED: &[(&str, f64)] = &[
        (DECIDE, 2618.0872600666416),
        (CANDIDATES, 5.679818946303896),
        (TRAIN, 566.053338094847),
        ("interference_model.samples_per_bin", 32.0),
        (EXTRACT, 103.80682680800638),
        (SYNC, 1.2465984020086354),
        (BITS, 117.5069721466116),
    ];
    const LINK: &[(&str, f64)] = &[("decode_msps", 0.43311400692994495), ("psr", 0.63125)];
    const SERVER_TRACED: &[(&str, f64)] = &[(SYNC, 6.497), (BITS, 106.56), (SERVICE, 135.1)];
    const SERVER: &[(&str, f64)] = &[("decode_msps", 7.836025088498624), ("psr", 1.0)];

    /// An output in `perfbench`'s format, a `#` header and note then the JSON
    /// line, with `names` scaled by `scale` (a NaN scale drops them).
    fn output(w: &str, trace: u8, metrics: &[(&str, f64)], names: &[&str], scale: f64) -> String {
        let value = |n: &str, v: f64| if names.contains(&n) { v * scale } else { v };
        let fields = metrics.iter().map(|&(n, v)| (n, value(n, v)));
        let fields = fields.filter(|(_, v)| !v.is_nan());
        let fields = fields.map(|(n, v)| format!("\"{n}\": {{\"value\": {v}, \"unit\": \"ns\"}}"));
        format!(
            "# perfbench workload={w} seed=1 heldout_seed=20161212 seconds=10 trace={trace} \
             smoke=false nproc=2 avx2=true\n# setup_reps_s=[0.8970, 0.7952]\n\
             {{\"correct\": true, \"attempted\": 391, \"failed\": 0, \"metrics\": {{{}}}}}\n",
            fields.collect::<Vec<_>>().join(", ")
        )
    }

    /// A workload's untraced and traced fixture outputs, the traced (or else the
    /// untraced) one altered as in [`output`].
    fn pair(w: &str, traced: bool, names: &[&str], scale: f64) -> (String, String) {
        let server = w == "server_fanin";
        let (u, t) = if server {
            (SERVER, SERVER_TRACED)
        } else {
            (LINK, LINK_TRACED)
        };
        let (us, ts) = if traced { (1.0, scale) } else { (scale, 1.0) };
        (output(w, 0, u, names, us), output(w, 1, t, names, ts))
    }

    /// The failures of gating an altered pair against `ledger`.
    fn check(ledger: &str, w: &str, traced: bool, names: &[&str], scale: f64) -> Vec<String> {
        let (u, t) = pair(w, traced, names, scale);
        gate(ledger, &u, &t).err().unwrap_or_default()
    }

    fn ledger() -> String {
        let line = |w| record(17, &pair(w, true, &[], 1.0).0, &pair(w, true, &[], 1.0).1);
        line("link_interfered").unwrap() + "\n" + &line("server_fanin").unwrap() + "\n"
    }

    /// Asserts exactly one failure, starting with `prefix`.
    fn fails(failures: Vec<String>, prefix: &str) {
        let one = failures.len() == 1 && failures[0].starts_with(prefix);
        assert!(one, "expected {prefix:?}, got {failures:?}");
    }

    #[test]
    fn record_round_trips_through_gate_as_a_pass() {
        let ledger = ledger();
        let head = r#"{"pr":17,"workload":"link_interfered","seed":1,"seconds":10,"nproc":2,"avx2":true,"correct":true,"attempted":782,"failed":0,"end_to_end":{"decode_msps":0.43311400692994495,"psr":0.63125},"per_layer":{"#;
        assert!(ledger.starts_with(head), "{ledger}");
        let (u, t) = pair("link_interfered", true, &[], 1.0);
        assert_eq!(
            gate(&ledger, &u, &t).unwrap().len(),
            4,
            "psr, 2 counts, ratio"
        );
        let (u, t) = pair("server_fanin", true, &[], 1.0);
        assert_eq!(gate(&ledger, &u, &t).unwrap().len(), 3, "psr, 2 ratios");
    }

    #[test]
    fn a_ratio_twenty_percent_over_its_tolerance_fails_naming_it() {
        let ledger = ledger();
        let link = [DECIDE, TRAIN, EXTRACT];
        let failures = check(&ledger, "link_interfered", true, &link, 1.15 * 1.2);
        fails(
            failures,
            &format!("link_interfered: {LINK_RATIO}: ledger 27.98"),
        );
        assert!(check(&ledger, "link_interfered", true, &link, 1.14).is_empty());
        let failures = check(&ledger, "server_fanin", true, &[SERVICE], 1.25 * 1.2);
        fails(failures, "server_fanin: service / bits: ledger 1.26");
        let failures = check(&ledger, "server_fanin", true, &[BITS], 1.25 * 1.2);
        fails(failures, "server_fanin: bits / sync: ledger 16.40");
        // A faster stage never fails.
        assert!(check(&ledger, "link_interfered", true, &[DECIDE], 0.5).is_empty());
    }

    #[test]
    fn a_psr_or_candidates_mismatch_fails() {
        let ledger = ledger();
        let failures = check(&ledger, "link_interfered", false, &["psr"], 0.99);
        fails(
            failures,
            "link_interfered: psr: ledger 0.63125, run 0.62493",
        );
        let failures = check(&ledger, "link_interfered", true, &[CANDIDATES], 1.02);
        let more = format!("link_interfered: {CANDIDATES}: ledger 5.679818946303896, run 5.79");
        fails(failures, &more);
        let failures = check(&ledger, "link_interfered", true, &[CANDIDATES], 0.98);
        fails(failures, &format!("link_interfered: {CANDIDATES}"));
        assert!(check(&ledger, "link_interfered", true, &[CANDIDATES], 1.005).is_empty());
    }

    #[test]
    fn incorrect_faulty_incomplete_or_unknown_runs_fail() {
        let ledger = ledger();
        let (u, t) = pair("link_interfered", true, &[], 1.0);
        let gate = |u: &str, t: &str| gate(&ledger, u, t).unwrap_err();
        let wrong = u.replace("\"correct\": true", "\"correct\": false");
        let incorrect = "link_interfered: correct: ledger true, run false";
        fails(gate(&wrong, &t), incorrect);
        let faulty = t.replace("\"failed\": 0", "\"failed\": 2");
        fails(
            gate(&u, &faulty),
            "link_interfered: failed: ledger 0, run 2",
        );
        let failures = check(&ledger, "link_interfered", true, &[BITS], f64::NAN);
        let missing = format!("link_interfered: {LINK_RATIO}: the run has no {BITS}");
        fails(failures, &missing);
        let failures = check(&ledger, "link_interfered", false, &["psr"], f64::NAN);
        fails(failures, "link_interfered: psr: the run has no psr");
        let rename = |s: &str| s.replace("=link_interfered", "=stream_rolling");
        let unknown = "stream_rolling: no gate is declared for this workload";
        fails(gate(&rename(&u), &rename(&t)), unknown);
        let reseed = |s: &str| s.replace("seed=1 ", "seed=2 ");
        let unseen = "link_interfered: the ledger has no line for seed 2";
        fails(gate(&reseed(&u), &reseed(&t)), unseen);
        // Swapped, mismatched, smoke or failing outputs are refused outright.
        fails(gate(&t, &u), "expected a --trace 0 output");
        let server = pair("server_fanin", true, &[], 1.0).1;
        fails(gate(&u, &server), "the two outputs differ in workload");
        let smoke = |s: &str| s.replace("smoke=false", "smoke=true");
        fails(gate(&smoke(&u), &smoke(&t)), "a --smoke run");
        assert!(record(17, &wrong, &t).is_err());
    }

    #[test]
    fn the_latest_matching_ledger_line_wins() {
        let (newer, t) = pair("link_interfered", false, &["psr"], 1.04);
        let ledger = ledger() + &record(18, &newer, &t).unwrap();
        assert!(gate(&ledger, &newer, &t).is_ok());
        let failures = check(&ledger, "link_interfered", false, &[], 1.0);
        fails(failures, "link_interfered: psr: ledger 0.6565,");
        assert!(check(&ledger, "server_fanin", false, &[], 1.0).is_empty());
        let table = table(&ledger).unwrap();
        let head = "| End to end | `link_interfered` seed 1 | `server_fanin` seed 1 |\n";
        assert!(table.starts_with(head), "{table}");
        let rows = [
            "| pr | 18 | 17 |",
            "| `psr` | 0.6565 | 1 |",
            "| `viterbi.bits` | 117.5",
        ];
        assert!(rows.iter().all(|row| table.contains(row)), "{table}");
    }

    /// README § Performance carries `check_perfbench table BENCH_perfbench.jsonl`
    /// between two marker lines.
    #[test]
    fn readme_table_matches_the_committed_ledger() {
        let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
        let ledger = std::fs::read_to_string(format!("{root}/BENCH_perfbench.jsonl")).unwrap();
        let readme = std::fs::read_to_string(format!("{root}/README.md")).unwrap();
        let marker = |end| format!("<!-- check_perfbench table BENCH_perfbench.jsonl: {end} -->\n");
        let start = readme.find(&marker("begin")).expect("begin marker") + marker("begin").len();
        let stop = readme.find(&marker("end")).expect("end marker");
        let stale = "README is stale: paste `check_perfbench table BENCH_perfbench.jsonl`";
        assert_eq!(readme[start..stop], table(&ledger).unwrap(), "{stale}");
    }
}
