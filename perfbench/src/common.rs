//! Shared plumbing: timing, sample sets and percentiles, the result
//! collector, the scratch directory, CPU pinning, and the host facts the
//! run record carries.

use gtgd_data::obs;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Samples a p90 needs: ten samples beyond the percentile. The run record
/// prints a percentile only above its floor.
const P90_FLOOR: usize = 100;
/// Samples a p99 needs.
const P99_FLOOR: usize = 1000;

/// Wall time of `f` in milliseconds, with its result.
pub fn timed<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let t = Instant::now();
    let out = f();
    (t.elapsed().as_secs_f64() * 1e3, out)
}

/// `f` with the probes on, against zeroed counters: its result, its wall
/// time in milliseconds, and the counters it moved.
pub fn traced<T>(f: impl FnOnce() -> T) -> (f64, T, obs::RunReport) {
    let ((ms, out), rep) = obs::trace_run(|| timed(f));
    (ms, out, rep)
}

/// One op class's latency samples, in milliseconds.
#[derive(Debug, Default)]
pub struct Samples(Vec<f64>);

impl Samples {
    pub fn push(&mut self, ms: f64) {
        self.0.push(ms);
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// The `p`-quantile (`0 < p < 1`) by linear interpolation between
    /// closest ranks. Panics on an empty set: every run makes at least
    /// `MIN_ROUNDS` rounds, so every op class has samples.
    pub fn quantile(&self, p: f64) -> f64 {
        assert!(!self.0.is_empty(), "quantile of an empty sample set");
        let mut v = self.0.clone();
        v.sort_by(f64::total_cmp);
        let pos = p * (v.len() - 1) as f64;
        let lo = pos.floor() as usize;
        let hi = pos.ceil() as usize;
        v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
    }

    pub fn median(&self) -> f64 {
        self.quantile(0.5)
    }

    /// The mean of the fastest quarter of the samples. The host is a
    /// shared VM whose speed slides between contended and uncontended
    /// phases lasting seconds to minutes, which slow every op by up to
    /// 1.8x; contention only ever adds time, so the fastest quarter tracks
    /// the op's own cost, where the median and the mean follow the share
    /// of the run that fell in a slow phase.
    pub fn fast_quarter_mean(&self) -> f64 {
        assert!(!self.0.is_empty(), "mean of an empty sample set");
        let mut v = self.0.clone();
        v.sort_by(f64::total_cmp);
        let fast = &v[..v.len().div_ceil(4)];
        fast.iter().sum::<f64>() / fast.len() as f64
    }
}

/// Everything one run reports: op outcomes, metrics, and the run record.
#[derive(Debug, Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// Metric name → (value, unit); end-to-end or per-layer by run mode.
    pub metrics: BTreeMap<String, (f64, &'static str)>,
    /// Sample counts and percentiles per op class, for the run record.
    pub samples: BTreeMap<String, String>,
    /// Wall seconds each family took in the timed rounds, for the run
    /// record.
    pub family_s: BTreeMap<String, f64>,
    /// Exact, seed-determined counts (the determinism self-check).
    pub exact: BTreeMap<String, u64>,
    /// Failed checks, described (printed to stderr, never fatal).
    pub failures: Vec<String>,
    /// The run's host speed factor (see `Reference`); set before the
    /// families report.
    pub speed_factor: Option<f64>,
}

impl Report {
    /// Counts one op and whether its output check passed.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failures.len() < 20 {
                self.failures.push(what());
            }
        }
    }

    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let name = name.into();
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        let prev = self.metrics.insert(name.clone(), (value, unit));
        assert!(prev.is_none(), "metric {name} reported twice");
    }

    /// Reports a time as measured on this host, adjusted to the reference
    /// host speed by the run's speed factor.
    pub fn adjusted(&mut self, name: &str, value: f64, unit: &'static str) {
        let factor = self
            .speed_factor
            .expect("the speed factor is set before metrics");
        self.metric(name, value * factor, unit);
    }

    /// Records an op class's sample count and percentiles in the run
    /// record.
    pub fn record_samples(&mut self, op: &str, s: &Samples) {
        let mut line = format!(
            "n={} fast25={:.4} p50={:.4}",
            s.len(),
            s.fast_quarter_mean(),
            s.median()
        );
        if s.len() >= P90_FLOOR {
            let _ = write!(line, " p90={:.4}", s.quantile(0.9));
        }
        if s.len() >= P99_FLOOR {
            let _ = write!(line, " p99={:.4}", s.quantile(0.99));
        }
        self.samples.insert(op.to_owned(), line);
    }

    /// Checks the share of an op's traced time its layer timings account
    /// for (reported as a per-layer metric): below 0.9 is a failure.
    pub fn coverage(&mut self, name: &str, share: f64) {
        self.check(share >= 0.9, || {
            format!("{name}: layers cover {:.1}% of the op", share * 100.0)
        });
    }
}

/// The reference kernel's fastest-quarter time on the host the benchmark
/// was tuned on (2-vCPU Xeon VM at 2.0 GHz), in milliseconds.
const REFERENCE_NOMINAL_MS: f64 = 1.8;
/// Elements the reference kernel sorts.
const REFERENCE_LEN: usize = 50_000;

/// A fixed piece of work owned by the benchmark, timed between the
/// families all through the run to measure how fast the host is running.
/// The host is a VM on a shared machine whose speed slides between phases
/// up to 1.8x apart for seconds to minutes, so that whole runs come out
/// 30% slow, every op alike. Dividing by the kernel's time takes that
/// out: the kernel's code never changes, so only the program moves an
/// adjusted time. The kernel sorts a fixed array into a buffer allocated
/// once, so it allocates nothing and the program's heap cannot change
/// its speed.
pub struct Reference {
    input: Vec<(u64, u64)>,
    buf: Vec<(u64, u64)>,
    samples: Samples,
}

impl Reference {
    pub fn new() -> Reference {
        let mut x = 0;
        let input = (0..REFERENCE_LEN)
            .map(|_| {
                x = mix(x, 1);
                (x % 1000, x)
            })
            .collect();
        Reference {
            input,
            buf: Vec::with_capacity(REFERENCE_LEN),
            samples: Samples::default(),
        }
    }

    /// Times one run of the kernel.
    pub fn sample(&mut self) {
        let (ms, ()) = timed(|| {
            self.buf.clear();
            self.buf.extend_from_slice(&self.input);
            self.buf.sort_unstable();
        });
        std::hint::black_box(&self.buf);
        self.samples.push(ms);
    }

    pub fn samples(&self) -> &Samples {
        &self.samples
    }

    /// Reference host speed over this host's speed in this run: times
    /// multiplied by it read as if measured on the reference host.
    pub fn speed_factor(&self) -> f64 {
        REFERENCE_NOMINAL_MS / self.samples.fast_quarter_mean()
    }
}

/// A scratch directory inside the working directory (the benchmark reads
/// and writes only inside its checkout), removed on drop — also when the
/// run panics and unwinds.
pub struct ScratchDir(PathBuf);

impl ScratchDir {
    pub fn new() -> std::io::Result<ScratchDir> {
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .unwrap_or(Duration::ZERO)
            .subsec_nanos();
        let dir = PathBuf::from(format!(".perfbench-tmp-{}-{nanos}", std::process::id()));
        std::fs::create_dir(&dir)?;
        Ok(ScratchDir(dir))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Peak resident set size (`VmHWM`) of this process, in MiB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// The commit the working directory is checked out at, read from `.git`
/// without running git; `unknown` outside a git checkout.
pub fn git_rev() -> String {
    let read = |p: &str| std::fs::read_to_string(Path::new(".git").join(p)).ok();
    let Some(head) = read("HEAD") else {
        return "unknown".to_owned();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_owned();
    };
    if let Some(rev) = read(reference) {
        return rev.trim().to_owned();
    }
    read("packed-refs")
        .and_then(|refs| {
            refs.lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next().map(str::to_owned))
        })
        .unwrap_or_else(|| "unknown".to_owned())
}

/// SplitMix64 finalizer: derives independent sub-seeds from the run seed.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Per-layer samples of a traced run: name → (samples, unit). Times are
/// reported as their median, counts as the median per op.
#[derive(Debug, Default)]
pub struct Layers(BTreeMap<String, (Samples, &'static str)>);

impl Layers {
    pub fn add(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0
            .entry(name.to_owned())
            .or_insert_with(|| (Samples::default(), unit))
            .0
            .push(value);
    }

    pub fn count(&mut self, name: &str, rep: &obs::RunReport, m: obs::Metric) {
        self.add(name, rep.counter(m) as f64, "count");
    }

    pub fn median(&self, name: &str) -> f64 {
        self.0
            .get(name)
            .unwrap_or_else(|| panic!("layer {name} was never sampled"))
            .0
            .median()
    }

    /// Reports every layer's median under `prefix.`.
    pub fn report(&self, prefix: &str, out: &mut Report) {
        for (name, (s, unit)) in &self.0 {
            out.metric(format!("{prefix}.{name}"), s.median(), unit);
        }
    }
}

extern "C" {
    fn sched_getcpu() -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Pins this thread, and so every thread it spawns afterwards (the daemon
/// included), to the CPU it is running on; returns that CPU. The serve
/// workload is one client and one daemon thread in a closed loop, so only
/// one of them runs at a time: on one CPU each hand-off is a local
/// context switch, where across two vCPUs it is a cross-CPU wake-up whose
/// cost varied 20% from run to run. The engines run single-threaded by
/// default, so no code path changes.
pub fn pin_to_current_cpu() -> Result<usize, String> {
    // SAFETY: sched_getcpu takes no arguments and only reads scheduler
    // state.
    let cpu = unsafe { sched_getcpu() };
    let cpu = usize::try_from(cpu).map_err(|_| "sched_getcpu failed".to_owned())?;
    // A glibc cpu_set_t: 1024 bits.
    let mut mask = [0u64; 16];
    *mask
        .get_mut(cpu / 64)
        .ok_or_else(|| format!("CPU {cpu} is beyond a 1024-bit cpu set"))? |= 1 << (cpu % 64);
    // SAFETY: `mask` is a live, initialized 128-byte buffer and the size
    // passed is exactly its length in bytes; pid 0 is the calling thread.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
    if rc != 0 {
        return Err(format!("sched_setaffinity to CPU {cpu} failed"));
    }
    Ok(cpu)
}
