//! The repo's benchmark: five workloads through the public API, every
//! output verified, every metric printed by name and unit.
//!
//! ```text
//! infopipes-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!                                  one workload in this process; the last
//!                                  stdout line is the result as JSON
//! infopipes-benchmark [--smoke] [--trace] [--seed <n>] [--seconds <s>]
//!                                  the whole suite, one child process per
//!                                  workload
//! infopipes-benchmark --aa [...]   the suite twice back to back, the two
//!                                  compared against each end-to-end
//!                                  metric's bound
//! ```
//!
//! See `benchmark/README.md` for what each name means.

mod alloc;
mod catalogue;
mod gen;
mod probes;
mod procfs;
mod stats;
mod trace;
mod workloads;

use catalogue::{Workload, END_TO_END, PER_LAYER, RUN_SECONDS, SPAN_METRICS, WORKLOADS};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::{Command, ExitCode};
use std::time::Instant;
use workloads::{RepeatCtx, RepeatResult};

#[global_allocator]
static ALLOCATOR: alloc::CountingAlloc = alloc::CountingAlloc;

#[derive(Clone)]
struct Opts {
    workload: Option<&'static Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    aa: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: infopipes-benchmark [--workload <{}>] [--seed <n>] [--seconds <s>] \
         [--trace [0|1]] [--smoke] [--aa]",
        WORKLOADS.map(|w| w.name).join("|")
    );
    std::process::exit(2);
}

fn parse_args() -> Opts {
    let mut opts = Opts {
        workload: None,
        seed: 1,
        seconds: RUN_SECONDS as f64,
        trace: false,
        smoke: false,
        aa: false,
    };
    let mut args = std::env::args().skip(1).peekable();
    while let Some(arg) = args.next() {
        let mut value = |what: &str| {
            args.next().unwrap_or_else(|| {
                eprintln!("{what} needs a value");
                usage()
            })
        };
        match arg.as_str() {
            "--workload" => {
                let name = value("--workload");
                opts.workload = Some(WORKLOADS.iter().find(|w| w.name == name).unwrap_or_else(
                    || {
                        eprintln!("unknown workload '{name}'");
                        usage()
                    },
                ));
            }
            "--seed" => opts.seed = value("--seed").parse().unwrap_or_else(|_| usage()),
            "--seconds" => {
                opts.seconds = value("--seconds").parse().unwrap_or_else(|_| usage());
                if !(opts.seconds > 0.0 && opts.seconds <= 600.0) {
                    usage();
                }
            }
            "--trace" => {
                // `--trace 0|1` from the driver; a bare `--trace` means 1.
                opts.trace = match args.peek().map(String::as_str) {
                    Some("0") => {
                        args.next();
                        false
                    }
                    Some("1") => {
                        args.next();
                        true
                    }
                    _ => true,
                };
            }
            "--smoke" => opts.smoke = true,
            "--aa" => opts.aa = true,
            _ => usage(),
        }
    }
    opts
}

// ---------------------------------------------------------------------
// One workload, in this process
// ---------------------------------------------------------------------

/// Runs repeats of `workload` (fresh kernels and pipelines each time):
/// at least `min`, and then as many as bring the run closest to
/// `budget` seconds. A repeat's length is fixed in items, not in time.
fn run_repeats(
    opts: &Opts,
    workload: &Workload,
    budget: f64,
    min: usize,
    traced: bool,
) -> Vec<RepeatResult> {
    let began = Instant::now();
    let mut repeats = Vec::new();
    loop {
        let ctx = RepeatCtx {
            seed: opts.seed,
            shrink: if opts.smoke { 50 } else { 1 },
            tracer: traced.then(trace::Tracer::new),
            detailed: opts.trace,
        };
        let each = Instant::now();
        // Every repeat starts from the heap a fresh process would have.
        procfs::trim_heap();
        repeats.push((workload.run)(&ctx));
        // Stop when another repeat of the same length would end further
        // from the budget than this one did.
        let spent = began.elapsed().as_secs_f64();
        if repeats.len() >= min && spent + each.elapsed().as_secs_f64() / 2.0 > budget {
            return repeats;
        }
    }
}

struct Outcome {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: BTreeMap<&'static str, f64>,
}

/// One value of every repeat that has it. A repeat whose closed loop
/// had to be restarted is left out while any other repeat remains: its
/// numbers hold the wait that preceded the restart.
fn column(repeats: &[RepeatResult], f: impl Fn(&RepeatResult) -> f64) -> Vec<f64> {
    let of = |undisturbed: bool| -> Vec<f64> {
        repeats
            .iter()
            .filter(|r| !undisturbed || r.keepalives == 0)
            .map(&f)
            .filter(|v| v.is_finite())
            .collect()
    };
    let clean = of(true);
    if clean.is_empty() {
        of(false)
    } else {
        clean
    }
}

/// Median over repeats of every layer value; `*_max*` values take the
/// maximum, since a median of maxima hides the one that mattered.
fn fold_layers(repeats: &[RepeatResult], into: &mut BTreeMap<&'static str, f64>) {
    let mut columns: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for r in repeats {
        for (name, v) in &r.layers {
            columns.entry(name).or_default().push(*v);
        }
    }
    for (name, values) in columns {
        let folded = if name.contains("_max") {
            values.iter().copied().fold(f64::NEG_INFINITY, f64::max)
        } else {
            stats::median(&values)
        };
        into.insert(name, folded);
    }
}

fn print_faults(repeats: &[RepeatResult]) -> bool {
    let mut clean = true;
    for (i, r) in repeats.iter().enumerate() {
        for fault in &r.faults {
            clean = false;
            println!("FAULT (repeat {i}): {fault}");
        }
    }
    clean
}

/// Prints one end-to-end value over the repeats and returns what is
/// reported for it: the median.
fn print_summary(m: &catalogue::Metric, values: &[f64]) -> f64 {
    let (name, unit) = (m.name, m.unit);
    if values.is_empty() {
        println!("  {name:<44} {:>16} {unit}", "n/a");
        return 0.0;
    }
    let s = stats::summarize(values);
    println!(
        "  {name:<44} {:>16.4} {unit:<8} (median of {} repeats, min {:.4}, max {:.4}; {} is better)",
        s.median,
        values.len(),
        s.min,
        s.max,
        m.better
    );
    s.median
}

fn run_untraced(opts: &Opts, w: &Workload) -> Outcome {
    let workload = w.name;
    let min = if opts.smoke { 1 } else { 2 };
    let repeats = run_repeats(opts, w, opts.seconds, min, false);
    let mut notes: Vec<&String> = repeats.iter().flat_map(|r| &r.notes).collect();
    notes.sort();
    notes.dedup();
    for note in notes {
        println!("note: {note}");
    }
    let restarted = repeats.iter().filter(|r| r.keepalives > 0).count();
    if restarted > 0 {
        println!(
            "WARNING: in {restarted} of {} repeats the closed loop stopped completing items \
             and was restarted by releasing one more (the lost ARRIVAL wake-up in infopipes \
             core, see the README); those repeats are left out of the medians",
            repeats.len()
        );
    }
    let correct = print_faults(&repeats);
    let mut metrics = BTreeMap::new();
    println!("end-to-end ({workload}, seed {}):", opts.seed);
    for (name, values) in [
        ("items_per_s", column(&repeats, |r| r.items_per_s)),
        ("lat_p50_us", column(&repeats, RepeatResult::lat_p50_us)),
        ("setup_s", column(&repeats, |r| r.setup_s)),
    ] {
        let m = catalogue::end_to_end(name).expect("catalogued metric");
        metrics.insert(m.name, print_summary(m, &values));
    }
    let rss = procfs::peak_rss_mb();
    println!(
        "  {:<44} {rss:>16.4} MiB      (VmHWM of this process)",
        "peak_rss_mb"
    );
    metrics.insert("peak_rss_mb", rss);
    let attempted: u64 = repeats.iter().map(|r| r.attempted).sum();
    let failed: u64 = repeats.iter().map(|r| r.failed).sum();
    println!(
        "  {:<44} {:>16.6} ratio    ({failed} of {attempted} items)",
        "failed_frac",
        failed as f64 / attempted.max(1) as f64
    );
    Outcome {
        correct: correct && failed == 0,
        attempted,
        failed,
        metrics,
    }
}

fn out_dir() -> std::path::PathBuf {
    // Run from the repo root (as BENCHMARK.json's command does) the
    // traces land in benchmark/out; run from inside benchmark/, in out/.
    if std::path::Path::new("benchmark/Cargo.toml").exists() {
        "benchmark/out".into()
    } else {
        "out".into()
    }
}

fn run_traced(opts: &Opts, w: &Workload) -> Outcome {
    let workload = w.name;
    alloc::enable();
    // One plain repeat (the baseline for the tracing overhead), one
    // traced repeat, and the probes.
    let plain = run_repeats(opts, w, 0.0, 1, false);
    let traced = run_repeats(opts, w, 0.0, 1, true);
    let correct = print_faults(&plain) & print_faults(&traced);

    let mut metrics: BTreeMap<&'static str, f64> = BTreeMap::new();
    // Counts and marks come from the plain repeats: tracing must not
    // colour them. Span-derived values then overwrite their slots.
    fold_layers(&plain, &mut metrics);
    let mut span_columns: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for t in traced.iter().filter_map(|r| r.trace.as_ref()) {
        // Self time per call is taken over every measured phase.
        let measured = t.phases.iter().flat_map(|(_, s)| &s.rows);
        let mut calls: BTreeMap<&'static str, (f64, f64)> = BTreeMap::new();
        for row in measured {
            if let Some((_, metric)) = SPAN_METRICS.iter().find(|(span, _)| *span == row.name) {
                let (total, n) = calls.entry(metric).or_default();
                *total += row.self_ns_per_call * row.spans as f64;
                *n += row.spans as f64;
            }
        }
        let mut push = |k, v| span_columns.entry(k).or_default().push(v);
        for (metric, (total, n)) in calls {
            push(metric, total / n);
        }
        // Interval, transit and coverage describe the phase latency is
        // taken from.
        if let Some((_, s)) = t.phases.last() {
            push("trace.explained_frac", s.explained_frac);
            push("trace.interval_us_p50", s.interval_ns_p50 / 1e3);
            push("netpipe.transport.transit_us_p50", s.transit_ns_p50 / 1e3);
        }
        push("trace.spans", t.spans.len() as f64);
    }
    for (name, values) in span_columns {
        metrics.insert(name, stats::median(&values));
    }
    let rate = |rs: &[RepeatResult]| {
        let v = column(rs, |r| r.items_per_s);
        if v.is_empty() {
            0.0
        } else {
            stats::median(&v)
        }
    };
    let (plain_rate, traced_rate) = (rate(&plain), rate(&traced));
    if plain_rate > 0.0 {
        metrics.insert("trace.overhead_frac", 1.0 - traced_rate / plain_rate);
    }
    metrics.extend(probes::run_all(opts.seed, if opts.smoke { 50 } else { 1 }));

    let attempted: u64 = plain.iter().chain(&traced).map(|r| r.attempted).sum();
    let failed: u64 = plain.iter().chain(&traced).map(|r| r.failed).sum();
    metrics.insert("failed_frac", failed as f64 / attempted.max(1) as f64);
    metrics.insert("repeats", (plain.len() + traced.len()) as f64);

    if let Some(t) = traced.iter().rev().find_map(|r| r.trace.as_ref()) {
        println!(
            "self time per layer ({workload}, last traced repeat, 1 item in {}):",
            trace::SAMPLE_EVERY
        );
        for (phase, summary) in &t.phases {
            print!("{}", trace::render_table(phase, summary));
        }
        let dir = out_dir();
        let path = dir.join(format!("trace_{workload}.json"));
        let written = std::fs::create_dir_all(&dir)
            .and_then(|()| std::fs::write(&path, trace::to_json(workload, &t.spans, &t.names)));
        match written {
            Ok(()) => println!("wrote {} ({} spans)", path.display(), t.spans.len()),
            Err(e) => println!("could not write {}: {e}", path.display()),
        }
    }
    println!("per-layer ({workload}, seed {}):", opts.seed);
    for m in &PER_LAYER {
        // A layer this workload never enters spent no time and counted
        // nothing there.
        let v = *metrics.entry(m.name).or_insert(0.0);
        println!("  {:<44} {v:>16.4} {}", m.name, m.unit);
    }
    Outcome {
        correct: correct && failed == 0,
        attempted,
        failed,
        metrics,
    }
}

fn result_line(outcome: &Outcome, names: &[catalogue::Metric]) -> String {
    let mut s = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        outcome.correct,
        outcome.attempted.max(1),
        outcome.failed
    );
    for (i, m) in names.iter().enumerate() {
        let v = outcome.metrics.get(m.name).copied().unwrap_or(0.0);
        let v = if v.is_finite() { v } else { 0.0 };
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            s,
            "{sep}\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
            m.name, m.unit
        );
    }
    s.push_str("}}");
    s
}

fn run_one(opts: &Opts, workload: &Workload) -> ExitCode {
    let cores = std::thread::available_parallelism().map_or(0, usize::from);
    // One CPU for the whole process, before any thread exists: what is
    // measured is then the program's work and its context switches, not
    // what the hypervisor charges to wake an idle virtual CPU (see the
    // README for the measurements behind this).
    let pinned = procfs::pin_to_one_cpu();
    println!(
        "workload {}: seed {}, {} s, trace {}, {cores} cores, {}{}",
        workload.name,
        opts.seed,
        opts.seconds,
        u8::from(opts.trace),
        pinned.map_or("NOT pinned (the kernel refused)".to_owned(), |cpu| format!(
            "pinned to CPU {cpu}"
        )),
        if opts.smoke { ", smoke" } else { "" }
    );
    println!("why: {}", workload.why);
    let (outcome, names): (Outcome, &[catalogue::Metric]) = if opts.trace {
        (run_traced(opts, workload), &PER_LAYER)
    } else {
        (run_untraced(opts, workload), &END_TO_END)
    };
    println!("{}", result_line(&outcome, names));
    if outcome.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

// ---------------------------------------------------------------------
// The suite: one child process per workload
// ---------------------------------------------------------------------

/// Reads `"<name>": {"value": <number>` out of a result line.
fn metric_value(line: &str, name: &str) -> Option<f64> {
    let rest = &line[line.find(&format!("\"{name}\": {{\"value\": "))?..];
    let number = rest.split("\"value\": ").nth(1)?;
    number[..number.find([',', '}'])?].trim().parse().ok()
}

struct ChildResult {
    ok: bool,
    line: String,
}

/// Re-executes this binary for one workload, so allocator state, leaked
/// threads and `VmHWM` never bleed from one workload into the next.
fn run_child(opts: &Opts, workload: &str, traced: bool) -> ChildResult {
    let exe = std::env::current_exe().expect("own path");
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload])
        .args(["--seed", &opts.seed.to_string()])
        .args(["--seconds", &opts.seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }]);
    if opts.smoke {
        cmd.arg("--smoke");
    }
    let output = cmd.output().expect("run child");
    let stdout = String::from_utf8_lossy(&output.stdout);
    print!("{stdout}");
    eprint!("{}", String::from_utf8_lossy(&output.stderr));
    let line = stdout.lines().last().unwrap_or_default().to_owned();
    ChildResult {
        ok: output.status.success() && line.contains("\"correct\": true"),
        line,
    }
}

/// Runs every workload once; returns each one's result line, or `None`
/// where it failed.
fn run_suite(opts: &Opts, traced: bool) -> Vec<Option<String>> {
    WORKLOADS
        .iter()
        .map(|w| {
            let child = run_child(opts, w.name, traced);
            if !child.ok {
                println!("FAIL: {} did not complete correctly", w.name);
            }
            println!();
            child.ok.then_some(child.line)
        })
        .collect()
}

fn print_suite_table(lines: &[Option<String>]) {
    print!("{:<18}", "workload");
    for m in &END_TO_END {
        print!(" {:>14}", format!("{} [{}]", m.name, m.unit));
    }
    println!();
    for (w, line) in WORKLOADS.iter().zip(lines) {
        print!("{:<18}", w.name);
        for m in &END_TO_END {
            match line.as_deref().and_then(|l| metric_value(l, m.name)) {
                Some(v) => print!(" {v:>14.4}"),
                None => print!(" {:>14}", "FAILED"),
            }
        }
        println!();
    }
}

/// How far apart two measurements of the same code may be: the metric's
/// bound as a share of the smaller one, and for `setup_s` at least
/// 20 ms, since a quarter of a 20 ms set-up is below what one scheduling
/// hiccup costs.
fn allowed_gap(m: &catalogue::Metric, a: f64, b: f64) -> f64 {
    let share = m.bound.unwrap_or(0.0) * a.min(b);
    if m.name == "setup_s" {
        share.max(0.020)
    } else {
        share
    }
}

/// Whether two measurements of the same code agree. Neither is the
/// parent of the other, so the test is the same whichever comes first.
fn agree(m: &catalogue::Metric, a: f64, b: f64) -> bool {
    (a - b).abs() <= allowed_gap(m, a, b)
}

/// The last acceptance criterion, run on this machine: the same code
/// measured twice back to back must agree within each metric's bound.
fn run_aa(opts: &Opts) -> ExitCode {
    let (first, second) = (run_suite(opts, false), run_suite(opts, false));
    println!("A/A: the same code measured twice, against each metric's bound");
    println!(
        "{:<16} {:<12} {:>14} {:>14} {:>8} {:>6}  verdict",
        "workload", "metric", "A", "B", "diff", "bound"
    );
    let mut pass = true;
    for ((w, a), b) in WORKLOADS.iter().zip(&first).zip(&second) {
        for m in &END_TO_END {
            let value =
                |line: &Option<String>| line.as_deref().and_then(|l| metric_value(l, m.name));
            let (Some(a), Some(b)) = (value(a), value(b)) else {
                println!("{:<16} {:<12} a run failed  FAIL", w.name, m.name);
                pass = false;
                continue;
            };
            let ok = agree(m, a, b);
            pass &= ok;
            println!(
                "{:<16} {:<12} {a:>14.4} {b:>14.4} {:>+7.1}% {:>5.0}%  {}",
                w.name,
                m.name,
                (b - a) / a.min(b) * 100.0,
                m.bound.unwrap_or(0.0) * 100.0,
                if ok { "PASS" } else { "FAIL" }
            );
        }
    }
    if pass {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let mut opts = parse_args();
    if let Some(workload) = opts.workload {
        return run_one(&opts, workload);
    }
    if opts.smoke {
        // Same topologies, a tenth of the items per repeat and one
        // repeat per workload.
        opts.seconds = opts.seconds.min(0.5);
    }
    let started = Instant::now();
    if opts.aa {
        return run_aa(&opts);
    }
    let lines = run_suite(&opts, false);
    let mut ok = lines.iter().all(Option::is_some);
    if opts.trace {
        ok &= run_suite(&opts, true).iter().all(Option::is_some);
    }
    print_suite_table(&lines);
    println!("suite took {:.1} s", started.elapsed().as_secs_f64());
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_round_trips_through_the_suite_parser() {
        let outcome = Outcome {
            correct: true,
            attempted: 10,
            failed: 0,
            metrics: BTreeMap::from([("items_per_s", 1234.5678), ("setup_s", 0.0123)]),
        };
        let line = result_line(&outcome, &END_TO_END);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 10, \"failed\": 0"));
        assert_eq!(metric_value(&line, "items_per_s"), Some(1234.5678));
        assert_eq!(metric_value(&line, "setup_s"), Some(0.0123));
        assert_eq!(metric_value(&line, "lat_p50_us"), Some(0.0));
        assert_eq!(metric_value(&line, "nope"), None);
    }

    #[test]
    fn a_restarted_repeat_stays_out_of_the_median_while_another_remains() {
        let repeat = |items_per_s, keepalives| RepeatResult {
            items_per_s,
            keepalives,
            ..RepeatResult::default()
        };
        let mixed = [repeat(100.0, 0), repeat(60.0, 1), repeat(104.0, 0)];
        assert_eq!(column(&mixed, |r| r.items_per_s), [100.0, 104.0]);
        let all = [repeat(60.0, 1), repeat(70.0, 2)];
        assert_eq!(column(&all, |r| r.items_per_s), [60.0, 70.0]);
    }

    #[test]
    fn agreement_is_symmetric_and_floors_setup_at_20_ms() {
        let rate = catalogue::end_to_end("items_per_s").unwrap();
        let gap = rate.bound.unwrap();
        // The same pair in either order gets the same verdict.
        for (a, b) in [(100.0, 140.0), (100.0, 100.0 * (1.0 + gap) - 0.01)] {
            assert_eq!(agree(rate, a, b), agree(rate, b, a), "{a} vs {b}");
        }
        assert!(!agree(rate, 100.0, 140.0));
        assert!(agree(rate, 100.0, 100.0 * (1.0 + gap) - 0.01));
        let setup = catalogue::end_to_end("setup_s").unwrap();
        assert!(agree(setup, 0.020, 0.039), "inside the 20 ms floor");
        assert!(!agree(setup, 0.020, 0.041));
        assert!(agree(setup, 1.0, 1.2) && !agree(setup, 1.0, 1.3));
    }
}
