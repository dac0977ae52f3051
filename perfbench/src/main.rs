//! The repository benchmark.
//!
//! ```text
//! perfbench --workload <farm_sweep|dense_1m|policy_rounds> --seed <n>
//!           --seconds <s> --trace <0|1>
//! perfbench compare <result.json> <result.json>
//! perfbench digests --from <seed> --to <seed> [--workload <name>]
//! ```
//!
//! A run prints a host stamp, the deterministic work counts and the output
//! digest as `#` lines, saves the whole result under `work/results/`, and
//! ends with one JSON line: `correct`, `attempted`, `failed` and the
//! metrics — end-to-end with `--trace 0`, per-layer with `--trace 1`.
//! `compare` diffs two saved results and refuses results from different
//! hosts. `digests` prints reference digests for `digests.txt`.

mod bench;
mod digest;
mod gen;
mod host;
mod trace;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;

use wsn_sim::persist::{json, parse_document, render_compact, render_document, Node, Value};
use wsn_sim::Runner;

use bench::{BenchError, Ctx, Outcome, Size, Workload};
use digest::{field, number};
use host::HostStamp;

/// Reference digests: `<workload> <seed> <hex>` per line.
const DIGESTS: &str = include_str!("../digests.txt");

/// Worker threads: the farm's pool, capped so results from larger hosts
/// stay comparable with the 2-CPU reference host.
const MAX_THREADS: usize = 2;

fn package_dir() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// Generated inputs, outputs, spans and saved results.
fn work_root() -> PathBuf {
    package_dir().join("work")
}

fn expected_digest(wl: Workload, seed: u64) -> Option<u64> {
    DIGESTS.lines().find_map(|line| {
        let mut parts = line.split_whitespace();
        let (w, s, d) = (parts.next()?, parts.next()?, parts.next()?);
        (w == wl.name() && s.parse() == Ok(seed))
            .then(|| u64::from_str_radix(d, 16).ok())
            .flatten()
    })
}

fn runner() -> Runner {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    Runner::with_threads(nproc.min(MAX_THREADS))
}

struct RunArgs {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_run(args: &[String]) -> Result<RunArgs, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(bad)?),
            "--seconds" => seconds = Some(value.parse::<u64>().map_err(bad)?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(RunArgs {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// The final result line.
fn result_json(outcome: &Outcome) -> (bool, Node) {
    let finite = outcome.metrics.iter().all(|(_, v, _)| v.is_finite());
    let correct = outcome.failed == 0 && outcome.attempted > 0 && finite;
    let metrics = outcome
        .metrics
        .iter()
        .map(|&(name, value, unit)| {
            let value = if value.is_finite() { value } else { 0.0 };
            (
                name,
                json::obj(vec![
                    ("value", json::num(value)),
                    ("unit", json::string(unit)),
                ]),
            )
        })
        .collect();
    (
        correct,
        json::obj(vec![
            ("correct", json::boolean(correct)),
            ("attempted", json::uint(outcome.attempted)),
            ("failed", json::uint(outcome.failed)),
            ("metrics", json::obj(metrics)),
        ]),
    )
}

fn run(args: RunArgs) -> ExitCode {
    let wl = args.workload;
    let work = work_root();
    let results = work.join("results");
    if let Err(e) = std::fs::create_dir_all(&results) {
        eprintln!("perfbench: cannot create {}: {e}", results.display());
        return ExitCode::from(2);
    }
    let stamp = HostStamp::current(package_dir().parent().unwrap_or(package_dir()));
    let ctx = Ctx {
        work,
        seed: args.seed,
        size: Size::FULL,
        seconds: Duration::from_secs(args.seconds),
        runner: runner(),
        expected: expected_digest(wl, args.seed),
    };
    let tag = format!(
        "{}-seed{}-trace{}",
        wl.name(),
        args.seed,
        u8::from(args.trace)
    );
    println!(
        "# perfbench {} seed={} trace={} threads={}",
        wl.name(),
        args.seed,
        u8::from(args.trace),
        ctx.runner.threads()
    );
    println!("# host: {}", render_compact(&stamp.to_json()));

    let outcome = if args.trace {
        bench::traced(wl, &ctx, &results.join(format!("{tag}.spans.jsonl")))
    } else {
        bench::end_to_end(wl, &ctx)
    };
    let outcome = match outcome {
        Ok(outcome) => outcome,
        Err(e @ BenchError::Skipped(_)) => {
            println!("# {}: {e}", wl.name());
            return ExitCode::from(3);
        }
        Err(e) => {
            eprintln!("perfbench: {}: {e}", wl.name());
            return ExitCode::from(1);
        }
    };

    let work_counts = outcome.work.to_json(true);
    println!("# work: {}", render_compact(&work_counts));
    println!(
        "# digest: {:016x} ({})",
        outcome.digest,
        match ctx.expected {
            Some(_) => "recorded for this seed",
            None => "no digest recorded for this seed; checked for repeatability only",
        }
    );
    if let Some(gap) = outcome.paper_gap_pct {
        println!("# accuracy: §5 case study mean power is {gap:.3} % from the paper's 211 µW");
    }
    let (correct, result) = result_json(&outcome);
    let saved = json::obj(vec![
        ("host", stamp.to_json()),
        ("workload", json::string(wl.name())),
        ("seed", json::uint(args.seed)),
        ("trace", json::boolean(args.trace)),
        ("digest", json::string(&format!("{:016x}", outcome.digest))),
        ("work", work_counts),
        ("result", result.clone()),
    ]);
    let path = results.join(format!("{tag}.json"));
    match std::fs::write(&path, render_document(&saved)) {
        Ok(()) => println!("# saved: {}", path.display()),
        Err(e) => eprintln!("perfbench: cannot save {}: {e}", path.display()),
    }
    if !correct {
        eprintln!("perfbench: {} failed its output checks", wl.name());
    }
    println!("{}", render_compact(&result));
    ExitCode::SUCCESS
}

fn load_result(path: &str) -> Result<Node, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    parse_document(&text).map_err(|e| format!("{path}: {e}"))
}

fn string_at<'a>(node: &'a Node, path: &[&str]) -> Option<&'a str> {
    let node = path.iter().try_fold(node, |n, k| field(n, k))?;
    match &node.value {
        Value::Str(s) => Some(s),
        _ => None,
    }
}

/// Two saved results compare only when they carry the same host
/// fingerprint.
fn same_host(a: &Node, b: &Node) -> Result<(), String> {
    let fa = string_at(a, &["host", "fingerprint"]);
    let fb = string_at(b, &["host", "fingerprint"]);
    match (fa, fb) {
        (Some(fa), Some(fb)) if fa == fb => Ok(()),
        _ => Err(format!(
            "host fingerprints differ ({} vs {})",
            fa.unwrap_or("?"),
            fb.unwrap_or("?")
        )),
    }
}

/// Prints each shared metric of two saved results side by side; refuses
/// results from different host fingerprints.
fn compare(a: &str, b: &str) -> ExitCode {
    let (ra, rb) = match (load_result(a), load_result(b)) {
        (Ok(ra), Ok(rb)) => (ra, rb),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("perfbench compare: {e}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = same_host(&ra, &rb) {
        eprintln!("perfbench compare: refused: {e}");
        return ExitCode::from(3);
    }
    let work = |r: &Node| field(r, "work").map(render_compact);
    let same_work = work(&ra) == work(&rb);
    println!(
        "# work counts: {}",
        if same_work {
            "identical (a difference below is cost per unit of work)"
        } else {
            "DIFFER (the work itself changed)"
        }
    );
    let metrics = |r: &Node| match field(r, "result")
        .and_then(|n| field(n, "metrics"))
        .map(|n| &n.value)
    {
        Some(Value::Obj(pairs)) => pairs
            .iter()
            .filter_map(|(k, v)| Some((k.name.clone(), number(field(v, "value")?)?)))
            .collect(),
        _ => Vec::new(),
    };
    let mb = metrics(&rb);
    println!("{:<36} {:>16} {:>16} {:>9}", "metric", "a", "b", "b/a");
    for (name, va) in metrics(&ra) {
        if let Some((_, vb)) = mb.iter().find(|(n, _)| *n == name) {
            let ratio = if va != 0.0 {
                format!("{:.4}", vb / va)
            } else {
                "-".into()
            };
            println!("{name:<36} {va:>16.6} {vb:>16.6} {ratio:>9}");
        }
    }
    ExitCode::SUCCESS
}

/// Prints `digests.txt` lines for a seed range.
fn digests(args: &[String]) -> ExitCode {
    let (mut from, mut to, mut only) = (0u64, 0u64, None);
    let mut it = args.iter();
    while let (Some(flag), Some(value)) = (it.next(), it.next()) {
        match (flag.as_str(), value.parse::<u64>()) {
            ("--from", Ok(v)) => from = v,
            ("--to", Ok(v)) => to = v,
            ("--workload", _) => only = Workload::parse(value),
            _ => {
                eprintln!("perfbench digests: bad argument {flag} {value}");
                return ExitCode::from(2);
            }
        }
    }
    for wl in Workload::ALL
        .into_iter()
        .filter(|w| only.is_none_or(|o| o == *w))
    {
        for seed in from..=to {
            let ctx = Ctx {
                work: work_root(),
                seed,
                size: Size::FULL,
                seconds: Duration::ZERO,
                runner: runner(),
                expected: None,
            };
            match bench::digest_once(wl, &ctx) {
                Ok(d) => println!("{} {seed} {d:016x}", wl.name()),
                Err(e) => {
                    eprintln!("perfbench digests: {} seed {seed}: {e}", wl.name());
                    return ExitCode::from(1);
                }
            }
        }
    }
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("compare") if args.len() == 3 => compare(&args[1], &args[2]),
        Some("digests") => digests(&args[1..]),
        _ => match parse_run(&args) {
            Ok(run_args) => run(run_args),
            Err(e) => {
                eprintln!("perfbench: {e}");
                eprintln!(
                    "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>"
                );
                ExitCode::from(2)
            }
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Telemetry is process-wide: tests that run workloads take turns.
    static WORKLOADS: std::sync::Mutex<()> = std::sync::Mutex::new(());

    fn tiny_ctx(name: &str, seed: u64) -> Ctx {
        Ctx {
            work: work_root().join(format!("test-{name}-{}", std::process::id())),
            seed,
            size: Size::TINY,
            seconds: Duration::ZERO,
            runner: Runner::with_threads(2),
            expected: None,
        }
    }

    fn names(outcome: &Outcome) -> Vec<(String, String)> {
        outcome
            .metrics
            .iter()
            .map(|(name, _, unit)| (name.to_string(), unit.to_string()))
            .collect()
    }

    /// `(name, unit)` of every metric in one section of BENCHMARK.json.
    fn declared(section: &str) -> Vec<(String, String)> {
        let doc =
            parse_document(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses");
        let text = |node: &Node, key: &str| match field(node, key).map(|n| &n.value) {
            Some(Value::Str(s)) => s.clone(),
            _ => panic!("{section} entry without {key}"),
        };
        match field(&doc, section).map(|n| &n.value) {
            Some(Value::Arr(items)) => items
                .iter()
                .map(|item| (text(item, "name"), text(item, "unit")))
                .collect(),
            _ => panic!("BENCHMARK.json has no {section} list"),
        }
    }

    #[test]
    fn smoke_every_workload_end_to_end_and_traced() {
        let _turn = WORKLOADS.lock().unwrap_or_else(|e| e.into_inner());
        for wl in Workload::ALL {
            let ctx = tiny_ctx(wl.name(), 3);
            std::fs::create_dir_all(&ctx.work).expect("test dir");
            let e2e = bench::end_to_end(wl, &ctx).expect("end-to-end run");
            assert!(
                e2e.attempted > 0 && e2e.failed == 0,
                "{}: {e2e:?}",
                wl.name()
            );
            assert!(e2e
                .metrics
                .iter()
                .all(|(_, v, _)| v.is_finite() && *v > 0.0));
            let traced =
                bench::traced(wl, &ctx, &ctx.work.join("spans.jsonl")).expect("traced run");
            assert!(
                traced.attempted > 0 && traced.failed == 0,
                "{}: {traced:?}",
                wl.name()
            );
            // Tracing changes nothing the program computes.
            assert_eq!(traced.digest, e2e.digest, "{}", wl.name());
            assert_eq!(traced.work, e2e.work, "{}", wl.name());
            // Every run reports exactly the metrics BENCHMARK.json declares.
            assert_eq!(names(&e2e), declared("end_to_end"), "{}", wl.name());
            assert_eq!(names(&traced), declared("per_layer"), "{}", wl.name());
            std::fs::remove_dir_all(&ctx.work).expect("test dir removes");
        }
    }

    #[test]
    fn a_wrong_recorded_digest_fails_the_run() {
        let _turn = WORKLOADS.lock().unwrap_or_else(|e| e.into_inner());
        let mut ctx = tiny_ctx("wrong-digest", 4);
        std::fs::create_dir_all(&ctx.work).expect("test dir");
        let good = bench::end_to_end(Workload::FarmSweep, &ctx).expect("run");
        ctx.expected = Some(good.digest ^ 1);
        let bad = bench::end_to_end(Workload::FarmSweep, &ctx).expect("run");
        assert_eq!(bad.failed, bad.attempted);
        assert!(!result_json(&bad).0);
        std::fs::remove_dir_all(&ctx.work).expect("test dir removes");
    }

    #[test]
    fn comparisons_across_hosts_are_refused() {
        let result = |fingerprint: &str| {
            parse_document(&format!(
                r#"{{"host":{{"fingerprint":"{fingerprint}"}},"work":{{}}}}"#
            ))
            .expect("parses")
        };
        assert!(same_host(&result("aa"), &result("aa")).is_ok());
        assert!(same_host(&result("aa"), &result("bb")).is_err());
        let stamp = HostStamp::current(package_dir());
        let mut other = stamp.clone();
        other.nproc += 1;
        assert_ne!(stamp.fingerprint(), other.fingerprint());
        other = stamp.clone();
        other.git_rev = "another commit".into();
        assert_eq!(stamp.fingerprint(), other.fingerprint());
    }

    #[test]
    fn recorded_digests_parse() {
        for line in DIGESTS
            .lines()
            .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
        {
            let parts: Vec<&str> = line.split_whitespace().collect();
            assert_eq!(parts.len(), 3, "{line}");
            let wl = Workload::parse(parts[0]).expect("known workload");
            let seed: u64 = parts[1].parse().expect("seed");
            assert!(expected_digest(wl, seed).is_some(), "{line}");
        }
    }

    #[test]
    fn run_arguments_parse_and_reject() {
        let args = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let ok = parse_run(&args("--workload dense_1m --seed 5 --seconds 10 --trace 1"))
            .expect("parses");
        assert_eq!(
            (ok.workload, ok.seed, ok.seconds, ok.trace),
            (Workload::Dense1m, 5, 10, true)
        );
        assert!(parse_run(&args("--workload nope --seed 5 --seconds 10 --trace 0")).is_err());
        assert!(parse_run(&args("--workload dense_1m --seed 5 --seconds 10 --trace 2")).is_err());
        assert!(parse_run(&args("--workload dense_1m --seed 5")).is_err());
    }
}
