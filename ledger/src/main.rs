//! `ledger` — the tseig benchmark.
//!
//! ```text
//! ledger [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1] [--scale full|smoke]
//! ```
//!
//! `--trace 0` measures the end-to-end metrics, `--trace 1` the per-layer
//! ones (and writes `target/ledger/trace-<workload>.json`). Every metric
//! is printed as one JSON line; the last line is the result summary
//! `{"correct", "attempted", "failed", "metrics"}`. Each workload runs in
//! child processes of this binary, one after another, so memory and
//! first-call numbers are per process and at most one process loads the
//! machine at a time.

use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use tseig_ledger::check::Tally;
use tseig_ledger::report::{self, median, Metric};
use tseig_ledger::{jobs, trace, Scale, Workload};

/// Processes per end-to-end run. Each makes the workload's first call
/// in a fresh process (a `setup_s` sample), then repeats the operation on
/// its warm state for its share of the run; the warm operations of all
/// processes are pooled.
const PROCESSES: usize = 3;

/// Warm operations every process runs at least, at full and smoke scale.
const MIN_WARM: usize = 1;
const SMOKE_WARM: usize = 2;

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    scale: Scale,
    child: Option<String>,
    budget: f64,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: 28.0,
        trace: false,
        scale: Scale::Full,
        child: None,
        budget: 0.0,
    };
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let mut it = raw.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                args.workload = match v.as_str() {
                    "all" => None,
                    name => Some(Workload::parse(name).ok_or(format!("unknown workload {name}"))?),
                };
            }
            "--seed" => args.seed = value()?.parse().map_err(|_| "bad --seed")?,
            "--seconds" => args.seconds = value()?.parse().map_err(|_| "bad --seconds")?,
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("bad --trace {other}, expected 0 or 1")),
                }
            }
            "--scale" => {
                let v = value()?;
                args.scale = Scale::parse(v).ok_or(format!("bad --scale {v}"))?;
            }
            "--child" => args.child = Some(value()?.clone()),
            "--budget" => args.budget = value()?.parse().map_err(|_| "bad --budget")?,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("ledger: {e}");
            eprintln!("usage: ledger [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1] [--scale full|smoke]");
            return ExitCode::from(2);
        }
    };
    let result = match &args.child {
        Some(role) => child(role, &args),
        None => parent(&args),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("ledger: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Run one child process of this binary and return its stdout lines.
fn spawn(args: &Args, w: Workload, role: &str, budget: f64) -> Result<Vec<String>, String> {
    let exe =
        std::env::current_exe().map_err(|e| format!("cannot locate the ledger binary: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args([
        "--child",
        role,
        "--workload",
        w.name(),
        "--scale",
        args.scale.name(),
    ])
    .args([
        "--seed",
        &args.seed.to_string(),
        "--budget",
        &budget.to_string(),
    ])
    .stdin(Stdio::null())
    .stderr(Stdio::inherit());
    if role == "one-thread" {
        cmd.env("RAYON_NUM_THREADS", "1");
    }
    let out = cmd
        .output()
        .map_err(|e| format!("cannot run a {role} process: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "{} {role} process failed: {}",
            w.name(),
            out.status
        ));
    }
    Ok(String::from_utf8_lossy(&out.stdout)
        .lines()
        .map(String::from)
        .collect())
}

/// Values of the child lines that start with `key`.
fn values<'a>(lines: &'a [String], key: &str) -> impl Iterator<Item = Vec<&'a str>> + 'a {
    let key = format!("{key} ");
    lines
        .iter()
        .filter_map(move |l| l.strip_prefix(&key).map(|r| r.split(' ').collect()))
}

fn num(s: Option<&&str>) -> Result<f64, String> {
    s.and_then(|v| v.parse().ok())
        .ok_or_else(|| "malformed child output".to_string())
}

fn tally_of(lines: &[String]) -> Result<Tally, String> {
    let v = values(lines, "tally")
        .next()
        .ok_or("child reported no tally")?;
    Ok(Tally {
        attempted: num(v.first())? as u64,
        failed: num(v.get(1))? as u64,
    })
}

fn parent(args: &Args) -> Result<(), String> {
    let workloads = args.workload.map_or(Workload::ALL.to_vec(), |w| vec![w]);
    let mut total = Tally::default();
    let mut last = Vec::new();
    for w in workloads {
        let (metrics, tally) = if args.trace {
            parent_trace(args, w)?
        } else {
            parent_e2e(args, w)?
        };
        for m in &metrics {
            println!("{}", report::line(w.name(), m));
        }
        let fail_frac = tally.failed as f64 / tally.attempted.max(1) as f64;
        println!(
            "{}",
            report::line(
                w.name(),
                &Metric::new("fail_frac", fail_frac, "fraction", tally.attempted as usize)
            )
        );
        total.add(tally);
        last = metrics;
    }
    // With one workload the summary carries its metrics; a run over all
    // four prints only the totals there (names repeat across workloads).
    if args.workload.is_none() {
        last.clear();
    }
    println!(
        "{}",
        report::summary(total.failed == 0 && total.attempted > 0, total, &last)
    );
    Ok(())
}

/// End-to-end metrics: the medians of the warm operations' wall times and
/// request rates, and the medians over the processes of the first call
/// and of the memory peak.
///
/// `--seconds` bounds the wall time of the whole run, process start-up,
/// input generation and checks included: each process gets what is left
/// of it divided by the processes still to come.
fn parent_e2e(args: &Args, w: Workload) -> Result<(Vec<Metric>, Tally), String> {
    let start = Instant::now();
    let mut tally = Tally::default();
    let (mut colds, mut mems, mut warm) = (Vec::new(), Vec::new(), Vec::new());
    let mut requests = 0.0;
    for p in 0..PROCESSES {
        let left = args.seconds - start.elapsed().as_secs_f64();
        let share = (left / (PROCESSES - p) as f64).max(0.0);
        let lines = spawn(args, w, "e2e", share)?;
        tally.add(tally_of(&lines)?);
        let first = |key: &str| {
            num(values(&lines, key)
                .next()
                .ok_or(format!("no {key} line"))?
                .first())
        };
        colds.push(first("cold")?);
        mems.push(first("mem")?);
        requests = first("requests")?;
        for v in values(&lines, "warm") {
            warm.push(num(v.first())?);
        }
    }
    let rates: Vec<f64> = warm.iter().map(|t| requests / t).collect();
    let metrics = vec![
        Metric::new("latency_p50_s", median(&warm), "s", warm.len()),
        Metric::new("throughput_rps", median(&rates), "1/s", warm.len()),
        Metric::new("setup_s", median(&colds), "s", colds.len()),
        Metric::new("mem_peak_mb", median(&mems), "MiB", mems.len()),
    ];
    Ok((metrics, tally))
}

fn parent_trace(args: &Args, w: Workload) -> Result<(Vec<Metric>, Tally), String> {
    let lines = spawn(args, w, "trace", 0.0)?;
    let one = spawn(args, w, "one-thread", 0.0)?;
    let mut tally = tally_of(&lines)?;
    tally.add(tally_of(&one)?);
    let mut metrics = Vec::new();
    for v in values(&lines, "metric") {
        let (name, unit) = (
            v.first().ok_or("malformed metric")?,
            v.get(2).ok_or("malformed metric")?,
        );
        metrics.push(Metric::new(
            *name,
            num(v.get(1))?,
            unit,
            num(v.get(3))? as usize,
        ));
    }
    let layer = |ls: &[String], name: &str| -> Result<f64, String> {
        let v = values(ls, "layer")
            .find(|v| v.first() == Some(&name))
            .ok_or(format!("no {name} time"))?;
        num(v.get(1))
    };
    for name in tseig_ledger::layers::LAYERS {
        let (t2, t1) = (layer(&lines, name)?, layer(&one, name)?);
        let speedup = if t2 > 0.0 { t1 / t2 } else { 0.0 };
        metrics.push(Metric::new(
            format!("{name}.speedup_2t"),
            speedup,
            "x",
            trace::reps(args.scale),
        ));
    }
    Ok((metrics, tally))
}

fn child(role: &str, args: &Args) -> Result<(), String> {
    let w = args.workload.ok_or("a child process needs --workload")?;
    match role {
        "e2e" => e2e_child(w, args),
        "trace" => {
            let (metrics, layers, tally, tracer) = trace::traced(w, args.scale, args.seed);
            for m in &metrics {
                println!(
                    "metric {} {} {} {}",
                    m.name,
                    report::number(m.value),
                    m.unit,
                    m.samples
                );
            }
            for (name, t) in layers {
                println!("layer {name} {t}");
            }
            println!("tally {} {}", tally.attempted, tally.failed);
            let dir = std::path::Path::new("target").join("ledger");
            let path = dir.join(format!("trace-{}.json", w.name()));
            std::fs::create_dir_all(&dir)
                .and_then(|()| std::fs::write(&path, tracer.chrome_json()))
                .map_err(|e| format!("cannot write {}: {e}", path.display()))
        }
        "one-thread" => {
            let (layers, tally) = trace::one_thread_layers(w, args.scale, args.seed);
            for (name, t) in layers {
                println!("layer {name} {t}");
            }
            println!("tally {} {}", tally.attempted, tally.failed);
            Ok(())
        }
        other => Err(format!("unknown child role {other}")),
    }
}

/// One end-to-end process: build the inputs, take the memory baseline,
/// make the first call, and repeat the operation while the next one is
/// expected to end within the process's share of the run (`--budget`
/// seconds of wall time from the process's start).
///
/// The memory peak is read when the first call returns. Later calls can
/// peak higher, by an amount that depends on which thread's allocator
/// arena held which buffer: on eig-f64-vectors a process peaked at either
/// ~214 or ~236 MiB.
fn e2e_child(w: Workload, args: &Args) -> Result<(), String> {
    let start = Instant::now();
    let mut job = jobs::new(w, args.scale, args.seed);
    let base = report::reset_peak();
    let t = Instant::now();
    job.op(0);
    let cold = t.elapsed().as_secs_f64();
    let mem = report::peak_growth_mib(base);
    let mut tally = job.verify(0);
    println!("cold {cold}");
    let mut warm: Vec<f64> = Vec::new();
    let another = |warm: &[f64]| match args.scale {
        Scale::Smoke => warm.len() < SMOKE_WARM,
        Scale::Full => {
            let next = if warm.is_empty() { cold } else { median(warm) };
            warm.len() < MIN_WARM || start.elapsed().as_secs_f64() + next <= args.budget
        }
    };
    while another(&warm) {
        let rep = warm.len() + 1;
        let t = Instant::now();
        job.op(rep);
        let dt = t.elapsed().as_secs_f64();
        tally.add(job.verify(rep));
        println!("warm {dt}");
        warm.push(dt);
    }
    println!("requests {}", job.requests());
    println!("mem {mem}");
    println!("tally {} {}", tally.attempted, tally.failed);
    Ok(())
}
