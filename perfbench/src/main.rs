//! The repository benchmark: drives the gtgd library in-process over three
//! workloads and prints one JSON result line (see README.md).
//!
//! ```text
//! perfbench --workload lubm-build|lubm-serve|omq-eval --seed N --seconds S --trace 0|1
//! ```
//!
//! Every run sets up and measures all three op families — the LUBM build
//! pipeline, the serve daemon, and the OMQ/CQS evaluators — so every run
//! reports every metric. The families take turns in rounds over the whole
//! run, so slow drift in the host's speed falls on all of them alike; the
//! workload sets how many steps of each family a round holds. With
//! `--trace 0` the run prints the end-to-end metrics, with `--trace 1` the
//! per-layer ones.

mod build;
mod common;
mod omq;
mod serve;

use build::Build;
use common::{
    git_rev, peak_rss_mb, pin_to_current_cpu, timed, Reference, Report, Samples, ScratchDir,
};
use omq::OmqEval;
use serve::Serve;
use std::collections::BTreeMap;
use std::path::Path;
use std::time::{Duration, Instant};

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// Reference kernel runs after each set-up.
const REFERENCE_PER_SETUP: usize = 3;
/// Rounds a run makes however short `--seconds` is, so every op class has
/// samples for its median.
const MIN_ROUNDS: usize = 5;

#[derive(Clone, Copy, PartialEq, Eq)]
enum Workload {
    LubmBuild,
    LubmServe,
    OmqEval,
}

impl Workload {
    /// Steps per round of (build cycles, serve periods, omq cycles): the
    /// workload's own family gets more than half of the run's time.
    fn weights(self) -> [usize; 3] {
        match self {
            Workload::LubmBuild => [3, 2, 1],
            Workload::LubmServe => [1, 16, 1],
            Workload::OmqEval => [1, 2, 3],
        }
    }

    fn parse(s: &str) -> Option<Workload> {
        match s {
            "lubm-build" => Some(Workload::LubmBuild),
            "lubm-serve" => Some(Workload::LubmServe),
            "omq-eval" => Some(Workload::OmqEval),
            _ => None,
        }
    }
}

struct Args {
    workload: Workload,
    workload_name: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, 10.0, false);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value}"))?),
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| format!("bad --seconds {value}"))?;
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload_name = workload.ok_or("--workload is required")?;
    Ok(Args {
        workload: Workload::parse(&workload_name)
            .ok_or_else(|| format!("unknown workload {workload_name}"))?,
        workload_name,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
    })
}

/// The three op families, set up and ready to time.
struct Families {
    build: Build,
    serve: Serve,
    omq: OmqEval,
}

impl Families {
    fn setup(seed: u64, dir: &Path, report: &mut Report) -> Result<Families, String> {
        Ok(Families {
            build: Build::setup(seed, dir, report)?,
            serve: Serve::setup(seed, dir, report)?,
            omq: OmqEval::setup(seed, report)?,
        })
    }
}

fn run(args: &Args, dir: &Path) -> Result<(Report, Samples, Reference), String> {
    let mut report = Report::default();
    let mut setup_s = Samples::default();
    let mut reference = Reference::new();
    let mut families: Option<Families> = None;
    for _ in 0..SETUP_REPS {
        if let Some(mut f) = families.take() {
            f.serve.stop()?;
        }
        let mut counts = Report::default();
        let (ms, f) = timed(|| Families::setup(args.seed, dir, &mut counts));
        setup_s.push(ms / 1e3);
        families = Some(f?);
        if !report.exact.is_empty() && report.exact != counts.exact {
            return Err("exact counts differ between two set-ups of one seed".to_owned());
        }
        report.exact = counts.exact;
        for _ in 0..REFERENCE_PER_SETUP {
            reference.sample();
        }
    }
    let mut f = families.expect("at least one set-up ran");
    let [w_build, w_serve, w_omq] = args.workload.weights();
    let (started, seconds) = (Instant::now(), Duration::from_secs_f64(args.seconds));
    let mut rounds = 0;
    while rounds < MIN_ROUNDS || started.elapsed() < seconds {
        reference.sample();
        let (build_ms, ()) = timed(|| {
            for _ in 0..w_build {
                f.build.step(args.trace, &mut report);
            }
        });
        reference.sample();
        let (serve_ms, ()) = timed(|| {
            for _ in 0..w_serve {
                f.serve.step(args.trace, &mut report);
            }
        });
        reference.sample();
        let (omq_ms, ()) = timed(|| {
            for _ in 0..w_omq {
                f.omq.step(args.trace, &mut report);
            }
        });
        for (family, ms) in [("build", build_ms), ("serve", serve_ms), ("omq", omq_ms)] {
            *report.family_s.entry(family.to_owned()).or_default() += ms / 1e3;
        }
        rounds += 1;
    }
    report.speed_factor = Some(reference.speed_factor());
    f.build.finish(args.trace, &mut report);
    f.serve.finish(args.trace, &mut report);
    f.omq.finish(args.trace, &mut report);
    f.serve.stop()?;
    if !args.trace {
        let ok = (report.attempted - report.failed) as f64 / report.attempted as f64;
        report.adjusted("setup_s", setup_s.median(), "s");
        report.metric("peak_rss_mb", peak_rss_mb()?, "MiB");
        report.metric("ok_ratio", ok, "ratio");
        let bpa = Build::bytes_per_atom(&report);
        report.metric("snapshot_bytes_per_atom", bpa, "B/atom");
    }
    Ok((report, setup_s, reference))
}

fn escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

fn object<V: std::fmt::Display>(map: &BTreeMap<String, V>, quote: bool) -> String {
    let fields: Vec<String> = map
        .iter()
        .map(|(k, v)| {
            let v = v.to_string();
            if quote {
                format!("\"{}\": \"{}\"", escape(k), escape(&v))
            } else {
                format!("\"{}\": {v}", escape(k))
            }
        })
        .collect();
    format!("{{{}}}", fields.join(", "))
}

/// The run record: host, revision, scale, flush policy, the wall time each
/// family took in the timed rounds with its share, and every op class's
/// sample count next to its percentiles, and the reference kernel's
/// samples with the speed factor they give.
/// `parallelism` is the host's, read before the process pinned itself.
fn record(
    args: &Args,
    host: (usize, usize),
    report: &Report,
    setup_s: &Samples,
    reference: &Reference,
) -> String {
    let total: f64 = report.family_s.values().sum();
    let share: BTreeMap<String, f64> = report
        .family_s
        .iter()
        .map(|(family, s)| (family.clone(), s / total))
        .collect();
    format!(
        "{{\"record\": {{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"available_parallelism\": {}, \"pinned_cpu\": {}, \"git_rev\": \"{}\", \
         \"lubm_universities\": {}, \"flush_policy\": \"{}\", \"setup_reps\": {}, \
         \"setup_s_p50\": {}, \"reference_fast25_ms\": {}, \"reference_samples\": {}, \
         \"speed_factor\": {}, \"family_s\": {}, \"family_share\": {}, \"samples\": {}, \
         \"exact\": {}}}}}",
        escape(&args.workload_name),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        host.0,
        host.1,
        escape(&git_rev()),
        build::UNIVERSITIES,
        serve::FLUSH_POLICY,
        setup_s.len(),
        setup_s.median(),
        reference.samples().fast_quarter_mean(),
        reference.samples().len(),
        reference.speed_factor(),
        object(&report.family_s, false),
        object(&share, false),
        object(&report.samples, true),
        object(&report.exact, false),
    )
}

fn result_line(report: &Report) -> String {
    let metrics: BTreeMap<String, String> = report
        .metrics
        .iter()
        .map(|(name, (value, unit))| {
            (
                name.clone(),
                format!("{{\"value\": {value}, \"unit\": \"{}\"}}", escape(unit)),
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        report.failed == 0,
        report.attempted,
        report.failed,
        object(&metrics, false)
    )
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let parallelism = std::thread::available_parallelism().map_or(0, usize::from);
    let outcome = pin_to_current_cpu().and_then(|cpu| {
        let dir =
            ScratchDir::new().map_err(|e| format!("cannot create the scratch directory: {e}"))?;
        let (report, setup_s, reference) = run(&args, dir.path())?;
        Ok((cpu, report, setup_s, reference))
    });
    match outcome {
        Ok((cpu, report, setup_s, reference)) => {
            for f in &report.failures {
                eprintln!("perfbench: check failed: {f}");
            }
            let host = (parallelism, cpu);
            println!("{}", record(&args, host, &report, &setup_s, &reference));
            println!("{}", result_line(&report));
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}
