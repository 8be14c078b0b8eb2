//! End-to-end and per-layer benchmark of pTatin3D-rs.
//!
//! ```text
//! perfbench --workload <rift|zoo|transport> --seed <n> --seconds <s> --trace <0|1>
//!           [--smoke] [--git-rev <rev>]
//! ```
//!
//! Each repetition builds the workload's inputs from the seed (timed as
//! set-up), runs the timed section through the production entry points,
//! and checks the outputs. Repetitions continue while the next one still
//! fits in `--seconds`. `--trace 0` reports the end-to-end metrics (medians
//! over the repetitions); `--trace 1` interleaves untraced and traced
//! repetitions and reports the per-layer metrics of the traced ones.
//! The first line of standard output records the host and build facts,
//! `{"observed": …}` lines give the checked values of each repetition, and
//! the last line is the JSON result.

mod layers;
mod reference;
mod rift;
mod transport;
mod zoo;

use layers::{LayerTotals, Spans, END_TO_END};
use ptatin_prof as prof;
use std::process::ExitCode;
use std::time::Instant;

/// A benchmark workload.
pub trait Workload {
    type Input;
    type Output;
    /// Build the inputs of one repetition (model construction, swarm
    /// seeding, input generation).
    fn setup(&self) -> Self::Input;
    /// The timed section.
    fn run(&self, input: Self::Input, spans: &mut Spans) -> Self::Output;
    /// Check the outputs (untimed). Records per-layer counts into `spans`.
    fn assess(&self, out: Self::Output, spans: &mut Spans) -> Ops;
    /// Spans whose sum should account for the timed section.
    fn children(&self) -> &'static [&'static str];
}

/// Operations attempted and failed in one repetition, with a description
/// of each failure.
#[derive(Default, Debug)]
pub struct Ops {
    pub attempted: usize,
    pub failures: Vec<String>,
}

impl Ops {
    /// Count one operation; `problems` lists every check it failed.
    pub fn record(&mut self, what: &str, problems: Vec<String>) {
        self.attempted += 1;
        if !problems.is_empty() {
            self.failures
                .push(format!("{what}: {}", problems.join("; ")));
        }
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    git_rev: String,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut smoke = false;
    let mut git_rev = "unknown".to_string();
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            smoke = true;
            continue;
        }
        let val = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = format!("bad value `{val}` for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(val.clone()),
            "--seed" => seed = Some(val.parse::<u64>().map_err(|_| bad)?),
            "--seconds" => seconds = Some(val.parse::<f64>().map_err(|_| bad)?),
            "--trace" => {
                trace = Some(match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad value `{val}` for --trace (0|1)")),
                })
            }
            "--git-rev" => git_rev = val.clone(),
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds {seconds} out of range (0, 600]"));
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
        smoke,
        git_rev,
    })
}

/// A per-process work directory under `.bench_work/` in the working
/// directory (the checkout root when run through `run.py`).
pub fn work_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::path::Path::new(".bench_work").join(format!("{tag}-{}", std::process::id()));
    // PANIC-OK: without a writable work directory the run cannot proceed.
    std::fs::create_dir_all(&dir).expect("create .bench_work directory");
    dir
}

fn median(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n == 0 {
        return f64::NAN;
    }
    if n % 2 == 1 {
        s[n / 2]
    } else {
        0.5 * (s[n / 2 - 1] + s[n / 2])
    }
}

/// Peak resident set of this process so far, from the kernel's
/// high-water mark.
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1)?.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

/// L2 and L3 sizes in KiB from CPUID's deterministic cache parameters
/// (leaf 4 on Intel, 0x8000_001D on AMD); 0 when unavailable.
fn cache_kib() -> (u64, u64) {
    #[cfg(target_arch = "x86_64")]
    {
        use std::arch::x86_64::{__cpuid, __cpuid_count};
        let mut sizes = (0, 0);
        let ext_max = __cpuid(0x8000_0000).eax;
        for leaf in [4u32, 0x8000_001D] {
            if leaf > 0x8000_0000 && ext_max < leaf {
                continue;
            }
            for sub in 0..8 {
                let r = __cpuid_count(leaf, sub);
                if r.eax & 0x1f == 0 {
                    break;
                }
                let level = (r.eax >> 5) & 7;
                let bytes = (((r.ebx >> 22) & 0x3ff) as u64 + 1)
                    * (((r.ebx >> 12) & 0x3ff) as u64 + 1)
                    * ((r.ebx & 0xfff) as u64 + 1)
                    * (r.ecx as u64 + 1);
                match level {
                    2 => sizes.0 = bytes / 1024,
                    3 => sizes.1 = bytes / 1024,
                    _ => {}
                }
            }
            if sizes != (0, 0) {
                break;
            }
        }
        sizes
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        (0, 0)
    }
}

fn json_str(s: &str) -> String {
    prof::Value::Str(s.to_string()).to_json()
}

fn host_line(args: &Args) -> String {
    let threads = ptatin_la::par::num_threads();
    let (l2, l3) = cache_kib();
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let simd = match ptatin_la::simd::runtime_simd_path() {
        ptatin_la::simd::SimdPath::Portable => "portable",
        _ => "avx2+fma",
    };
    format!(
        "{{\"host\": {{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"smoke\": {}, \"pool_threads\": {threads}, \"nproc\": {nproc}, \"l2_kib\": {l2}, \
         \"l3_kib\": {l3}, \"simd\": {}, \"git_rev\": {}}}}}",
        json_str(&args.workload),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        args.smoke,
        json_str(simd),
        json_str(&args.git_rev),
    )
}

/// Result of a whole run, ready to print.
struct Summary {
    attempted: usize,
    failures: Vec<String>,
    metrics: Vec<(&'static str, &'static str, f64)>,
}

/// Set-ups timed per repetition.
const SETUPS_PER_REP: usize = 8;

fn measure<W: Workload>(w: &W, args: &Args) -> Summary {
    let (seconds, trace) = (args.seconds, args.trace);
    println!("{}", host_line(args));
    let t_run = Instant::now();
    let (mut setups, mut walls, mut traced_walls) = (Vec::new(), Vec::new(), Vec::new());
    let mut layers = LayerTotals::default();
    let (mut attempted, mut failures) = (0, Vec::new());
    let mut longest: f64 = 0.0;
    let mut peak_rss = None;
    for rep in 0.. {
        let t_rep = Instant::now();
        // Several set-ups per repetition (the cheap ones are otherwise
        // lost in timer noise); the last one feeds the timed section. A
        // fixed count, one input alive at a time, keeps the heap history
        // (and so the peak RSS) independent of timing.
        let mut input = None;
        for _ in 0..SETUPS_PER_REP {
            drop(input.take());
            let t = Instant::now();
            input = Some(w.setup());
            setups.push(t.elapsed().as_secs_f64());
        }
        // In a traced run, odd repetitions are traced and even ones are
        // not, so the overhead ratio compares neighbours in time.
        let traced = trace && rep % 2 == 1;
        let mut spans = Spans::new(traced);
        if traced {
            prof::reset();
            prof::enable();
        }
        // PANIC-OK: the loop above runs at least once.
        let input = input.expect("set-up ran");
        let t = Instant::now();
        let out = w.run(input, &mut spans);
        let wall = t.elapsed().as_secs_f64() - spans.excluded;
        if traced {
            prof::disable();
            traced_walls.push(wall);
        } else {
            walls.push(wall);
        }
        let ops = w.assess(out, &mut spans);
        // The high-water mark of one whole repetition. Later repetitions
        // add only allocator fragmentation, which varies with how many of
        // them fit in the run.
        peak_rss.get_or_insert_with(peak_rss_mib);
        attempted += ops.attempted;
        failures.extend(ops.failures);
        if traced {
            let attributed: f64 = w.children().iter().map(|c| spans.get(c)).sum();
            spans.add("trace.attributed_s", attributed);
            spans.add("trace.root_s", wall);
            layers.add_rep(&prof::snapshot(), spans.into_map());
        }
        longest = longest.max(t_rep.elapsed().as_secs_f64());
        let min_reps = if trace { 2 } else { 1 };
        if rep + 1 >= min_reps && t_run.elapsed().as_secs_f64() + longest > seconds {
            break;
        }
    }
    let metrics = if trace {
        layers.report(median(&traced_walls) / median(&walls) - 1.0)
    } else {
        let values = [
            median(&setups),
            median(&walls),
            peak_rss.unwrap_or(f64::NAN),
            1.0 - failures.len() as f64 / attempted.max(1) as f64,
        ];
        END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit), v)| (name, unit, v))
            .collect()
    };
    Summary {
        attempted,
        failures,
        metrics,
    }
}

fn result_line(s: &Summary) -> String {
    let metrics: Vec<String> = s
        .metrics
        .iter()
        .map(|(n, u, v)| {
            // Non-finite values are not JSON; they fail the run instead.
            let v = if v.is_finite() { *v } else { -1.0 };
            format!(
                "{}: {{\"value\": {v:?}, \"unit\": {}}}",
                json_str(n),
                json_str(u)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        s.failures.is_empty() && s.metrics.iter().all(|m| m.2.is_finite()),
        s.attempted,
        s.failures.len(),
        metrics.join(", ")
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    // Every workload runs on a single-threaded pool.
    ptatin_la::par::set_num_threads(1);
    let summary = match args.workload.as_str() {
        "rift" => measure(&rift::Rift::new(args.seed, args.smoke), &args),
        "zoo" => measure(&zoo::Zoo::new(args.seed, args.smoke), &args),
        "transport" => measure(&transport::Transport::new(args.seed, args.smoke), &args),
        other => {
            eprintln!("perfbench: unknown workload `{other}` (rift|zoo|transport)");
            return ExitCode::from(2);
        }
    };
    for f in &summary.failures {
        eprintln!("perfbench: check failed: {f}");
    }
    println!("{}", result_line(&summary));
    ExitCode::SUCCESS
}
