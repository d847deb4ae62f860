//! Case-study benchmark of the rr hardening toolchain.
//!
//! ```text
//! perfbench --workload <faulter|patcher> --seed <n> --seconds <s> --trace <0|1>
//!           [--out-dir <dir>]
//! ```
//!
//! One client runs the workload's job list back to back (a closed loop)
//! for `--seconds`, after set-up and one warm-up pass whose outputs are
//! checked against a reference recount. With `--trace 0` it reports the
//! end-to-end metrics; with `--trace 1` it alternates untraced and
//! traced passes, then probes every layer's public calls on the
//! workload's binaries, writes its spans to `--out-dir`, and reports the
//! per-layer metrics. The last line of standard output is one JSON
//! object: `correct`, `attempted`, `failed` and `metrics`.

mod alloc;
mod check;
mod layers;
mod trace;
mod workload;

use std::fmt::Write as _;
use std::hint::black_box;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use trace::Tracer;
use workload::{run_pass, CaseStudy, Job, JobOutput, Workload};

#[global_allocator]
static HEAP: alloc::Counting = alloc::Counting;

/// Timed passes per run, at least, however long they take.
const MIN_PASSES: usize = 3;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: Duration,
    trace: bool,
    out_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<Option<&str>, String> {
        match raw.iter().position(|a| a == flag) {
            Some(i) => {
                raw.get(i + 1).map(|v| Some(v.as_str())).ok_or(format!("{flag} needs a value"))
            }
            None => Ok(None),
        }
    };
    let required = |flag: &str| value(flag)?.ok_or(format!("missing {flag}"));
    let number = |flag: &str| -> Result<u64, String> {
        required(flag)?.parse().map_err(|e| format!("{flag}: {e}"))
    };
    let trace = match required("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not `{other}`")),
    };
    Ok(Args {
        workload: required("--workload")?.parse()?,
        seed: number("--seed")?,
        seconds: Duration::from_secs(number("--seconds")?),
        trace,
        out_dir: PathBuf::from(value("--out-dir")?.unwrap_or(".bench_build/perfbench")),
    })
}

/// One reported metric.
pub struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

impl Metric {
    /// A metric named `name`, measured in `unit`.
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Metric {
        Metric { name, value, unit }
    }
}

/// Operations attempted and failed in a run.
#[derive(Default)]
pub struct Ledger {
    attempted: usize,
    failed: usize,
}

impl Ledger {
    /// Counts one pass: every job is an attempt, and a job fails when
    /// it errs or its result differs from the checked warm-up result.
    pub fn tally(
        &mut self,
        checked: &[Result<JobOutput, String>],
        pass: &[Result<JobOutput, String>],
    ) {
        for (reference, output) in checked.iter().zip(pass) {
            self.attempted += 1;
            let same = match (reference, output) {
                (Ok(reference), Ok(output)) => reference.same_result(output),
                _ => false,
            };
            if !same {
                self.failed += 1;
            }
        }
    }
}

/// Median of `values` (mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// Seconds per sample of one closed loop.
#[derive(Default)]
pub struct LoopTimes {
    /// Untraced passes.
    pub untraced: Vec<f64>,
    /// Traced passes.
    pub traced: Vec<f64>,
    /// Set-ups, one before each pass.
    pub setup: Vec<f64>,
}

/// Runs the timed closed loop: passes back to back until `seconds` have
/// passed and each kind ran [`MIN_PASSES`] times. With an enabled
/// `tracer`, every other pass is traced and handed to `on_traced`.
/// Before each pass, outside its timing, the set-up is timed again, so
/// that set-up and pass times sample the same stretch of the host's
/// load. Outputs are tallied against `checked` outside the timing.
pub fn timed_passes(
    run: RunSpec<'_>,
    ledger: &mut Ledger,
    tracer: &Tracer,
    mut on_traced: impl FnMut(Vec<Result<JobOutput, String>>),
) -> LoopTimes {
    let off = Tracer::off();
    let mut times = LoopTimes::default();
    let start = Instant::now();
    for pass in 1.. {
        let start_setup = Instant::now();
        black_box(workload::setup(run.seed)).ok();
        times.setup.push(start_setup.elapsed().as_secs_f64());

        let traced_pass = tracer.enabled() && pass % 2 == 0;
        let used = if traced_pass { tracer } else { &off };
        let start_pass = Instant::now();
        let outputs = run_pass(run.workload, run.jobs, run.studies, used, pass);
        let seconds = start_pass.elapsed().as_secs_f64();
        ledger.tally(run.checked, &outputs);
        if traced_pass {
            times.traced.push(seconds);
            on_traced(outputs);
        } else {
            times.untraced.push(seconds);
        }
        let enough = times.untraced.len() >= MIN_PASSES
            && (!tracer.enabled() || times.traced.len() >= MIN_PASSES);
        if enough && start.elapsed() >= run.seconds {
            break;
        }
    }
    times
}

/// What a run measures: the workload's jobs on its case studies, and the
/// checked warm-up outputs every pass must reproduce.
#[derive(Clone, Copy)]
pub struct RunSpec<'a> {
    workload: Workload,
    seed: u64,
    seconds: Duration,
    jobs: &'a [Job],
    studies: &'a [CaseStudy],
    checked: &'a [Result<JobOutput, String>],
}

fn run(args: &Args) -> Result<String, String> {
    let studies = workload::setup(args.seed)?;
    let jobs = workload::jobs(args.workload, &studies);

    // Warm-up pass, outside the timing: fills caches and finishes lazy
    // set-up; its outputs are the ones the check compares against the
    // reference, and every timed pass must reproduce them.
    let checked = run_pass(args.workload, &jobs, &studies, &Tracer::off(), 0);
    let mut ledger = Ledger::default();
    for (&job, output) in jobs.iter().zip(&checked) {
        ledger.attempted += 1;
        let verdict = match output {
            Ok(output) => check::check_job(job, output, &studies),
            Err(e) => Err(e.clone()),
        };
        if let Err(e) = verdict {
            eprintln!("perfbench: check failed: {e}");
            ledger.failed += 1;
        }
    }

    let spec = RunSpec {
        workload: args.workload,
        seed: args.seed,
        seconds: args.seconds,
        jobs: &jobs,
        studies: &studies,
        checked: &checked,
    };
    let metrics = if args.trace {
        layers::traced_run(spec, &mut ledger, &args.out_dir)?
    } else {
        end_to_end(spec, &mut ledger)
    };
    let mut json = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        ledger.failed == 0,
        ledger.attempted,
        ledger.failed
    );
    for (i, metric) in metrics.iter().enumerate() {
        if !metric.value.is_finite() {
            return Err(format!("metric {} is not a number", metric.name));
        }
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            json,
            "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            metric.name, metric.value, metric.unit
        );
    }
    json.push_str("}}");
    Ok(json)
}

fn end_to_end(run: RunSpec<'_>, ledger: &mut Ledger) -> Vec<Metric> {
    alloc::reset_peak();
    let times = timed_passes(run, ledger, &Tracer::off(), |_| {});
    let pass_s = times.untraced;
    let peak_heap_mb = alloc::peak_bytes() as f64 / (1 << 20) as f64;

    let done: Vec<(&CaseStudy, &JobOutput)> = run
        .jobs
        .iter()
        .zip(run.checked)
        .filter_map(|(job, out)| Some((&run.studies[job.study()], out.as_ref().ok()?)))
        .collect();
    let sum = |f: &dyn Fn(&CaseStudy, &JobOutput) -> u64| -> f64 {
        done.iter().map(|(study, out)| f(study, out)).sum::<u64>() as f64
    };
    let plans = sum(&|_, out| out.plans);
    let residual = sum(&|_, out| out.residual as u64);
    let code = sum(&check::code_size);
    let original_code = sum(&|study, _| study.exe.code_size());
    let steps = sum(&check::good_steps);
    let original_steps = sum(&|study, _| study.golden_good.steps);
    let pass = median(&pass_s);
    eprintln!("perfbench: pass times {pass_s:.4?}");
    println!(
        "perfbench: workload {} seed {}: {} timed passes, {plans} plans and {residual} \
         successes per pass",
        run.workload,
        run.seed,
        pass_s.len(),
    );
    vec![
        Metric::new("setup_s", median(&times.setup), "s"),
        Metric::new("pass_s", pass, "s"),
        Metric::new("plans_per_s", plans / pass, "1/s"),
        Metric::new("peak_heap_mb", peak_heap_mb, "MiB"),
        Metric::new("residual_successes", residual, "count"),
        Metric::new("code_size_pct", 100.0 * code / original_code, "%"),
        Metric::new("step_count_pct", 100.0 * steps / original_steps, "%"),
    ]
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(json) => {
            println!("{json}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
