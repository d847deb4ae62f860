//! The workloads: their seeded inputs, their job lists, and one pass over
//! a job list.

use crate::trace::Tracer;
use rr_core::{FaulterPatcher, HardenConfig};
use rr_emu::{execute, Execution};
use rr_fault::{
    CampaignConfig, CampaignSession, Collect, FaultModel, FlagFlip, InstructionSkip, SingleBitFlip,
    Summary,
};
use rr_obj::Executable;
use rr_telemetry::{MetricsSnapshot, Telemetry};
use std::collections::BTreeSet;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::str::FromStr;
use std::sync::Arc;

/// Worker threads of every campaign. Pinned, never `0`: step counters
/// and pass times both depend on the thread count.
pub const THREADS: usize = 2;
/// Step budget of golden runs, as in the default `CampaignConfig`.
pub const MAX_STEPS: u64 = 1_000_000;
/// Random inputs, beyond the single-byte perturbations, every hardened
/// binary is checked on.
const CANDIDATES: usize = 16;

/// Which job list a run executes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// One skip+bitflip+flagflip campaign per case study.
    Faulter,
    /// Faulter+Patcher hardening per case study × {skip, bitflip}.
    Patcher,
}

impl FromStr for Workload {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "faulter" => Ok(Workload::Faulter),
            "patcher" => Ok(Workload::Patcher),
            other => Err(format!("unknown workload `{other}` (faulter|patcher)")),
        }
    }
}

impl fmt::Display for Workload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Workload::Faulter => "faulter",
            Workload::Patcher => "patcher",
        })
    }
}

/// One case study with the inputs a seed selects.
#[derive(Debug)]
pub struct CaseStudy {
    /// Workload name (`pincheck`, `bootloader`, `otp`, `access`).
    pub name: &'static str,
    /// The original binary.
    pub exe: Arc<Executable>,
    /// The bundled good input.
    pub good: Vec<u8>,
    /// The bad input the campaigns run on.
    pub bad: Vec<u8>,
    /// The original binary's run on the good input.
    pub golden_good: Execution,
    /// Further bad inputs every hardened binary must treat like the
    /// original does.
    pub more_bad: Vec<Vec<u8>>,
}

/// Builds every case study for `seed`.
///
/// Seed 0 uses each study's bundled bad input. Any other seed draws the
/// bad input from the single-byte perturbations of the good input that
/// `Workload::more_bad_inputs(·, seed)` starts with: of those the
/// original binary does not accept, the one whose run is closest in
/// steps to the bundled bad input's (the first on a tie). Seeds so
/// change the data a campaign sees but not the path it takes.
///
/// # Errors
///
/// A study that fails to build, or a seed that draws no usable bad
/// input.
pub fn setup(seed: u64) -> Result<Vec<CaseStudy>, String> {
    rr_workloads::all_workloads().into_iter().map(|w| case_study(&w, seed)).collect()
}

fn case_study(w: &rr_workloads::Workload, seed: u64) -> Result<CaseStudy, String> {
    let exe = w.build().map_err(|e| format!("{}: {e}", w.name))?;
    let golden_good = execute(&exe, &w.good_input, MAX_STEPS);
    let more_bad = w.more_bad_inputs(CANDIDATES, seed);
    let bad = if seed == 0 {
        w.bad_input.clone()
    } else {
        let bundled = execute(&exe, &w.bad_input, MAX_STEPS).steps;
        w.more_bad_inputs(0, seed)
            .into_iter()
            .filter_map(|input| {
                let run = execute(&exe, &input, MAX_STEPS);
                (!run.same_behavior(&golden_good)).then(|| (run.steps.abs_diff(bundled), input))
            })
            .min_by_key(|(distance, _)| *distance)
            .map(|(_, input)| input)
            .ok_or_else(|| format!("{}: seed {seed} draws no rejected input", w.name))?
    };
    Ok(CaseStudy {
        name: w.name,
        exe: Arc::new(exe),
        good: w.good_input.clone(),
        bad,
        golden_good,
        more_bad,
    })
}

/// Fault model of a patcher job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Model {
    /// Instruction skip.
    Skip,
    /// Single bit flip in an instruction encoding.
    Bitflip,
}

impl Model {
    /// The model's campaign implementation.
    pub fn fault_model(self) -> &'static dyn FaultModel {
        match self {
            Model::Skip => &InstructionSkip,
            Model::Bitflip => &SingleBitFlip,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Model::Skip => "skip",
            Model::Bitflip => "bitflip",
        }
    }
}

/// Models of every faulter job, evaluated in one pass.
pub const FAULTER_MODELS: [&dyn FaultModel; 3] = [&InstructionSkip, &SingleBitFlip, &FlagFlip];

/// One user job: an index into the case studies plus what to do.
#[derive(Debug, Clone, Copy)]
pub enum Job {
    /// `rr fault --model skip,bitflip,flagflip` on the original binary.
    Fault { study: usize },
    /// `rr harden` with the default configuration against one model.
    Patch { study: usize, model: Model },
}

impl Job {
    /// The case study the job works on.
    pub fn study(self) -> usize {
        match self {
            Job::Fault { study } | Job::Patch { study, .. } => study,
        }
    }

    /// Readable job id, e.g. `otp/bitflip`.
    pub fn id(self, studies: &[CaseStudy]) -> String {
        let name = studies[self.study()].name;
        match self {
            Job::Patch { model, .. } => format!("{name}/{}", model.name()),
            Job::Fault { .. } => name.to_string(),
        }
    }
}

/// The workload's job list, in run order.
pub fn jobs(workload: Workload, studies: &[CaseStudy]) -> Vec<Job> {
    let indices = 0..studies.len();
    match workload {
        Workload::Faulter => indices.map(|study| Job::Fault { study }).collect(),
        Workload::Patcher => indices
            .flat_map(|study| {
                [Model::Skip, Model::Bitflip].map(|model| Job::Patch { study, model })
            })
            .collect(),
    }
}

/// Campaign settings of faulter and patcher jobs: the defaults with the
/// thread count pinned.
pub fn campaign_config() -> CampaignConfig {
    CampaignConfig { threads: THREADS, ..CampaignConfig::default() }
}

/// What one job produced.
#[derive(Debug)]
pub struct JobOutput {
    /// Campaign summaries: one per model (faulter) or one per loop
    /// iteration (patcher).
    pub summaries: Vec<Summary>,
    /// Vulnerable pcs per model (faulter only).
    pub vulnerable: Vec<BTreeSet<u64>>,
    /// The hardened binary (patcher only).
    pub hardened: Option<Arc<Executable>>,
    /// Success plans against the job's final binary.
    pub residual: usize,
    /// Plans executed; pruned and reused plans excluded.
    pub plans: u64,
    /// Faulter+Patcher iterations (patcher only).
    pub iterations: usize,
    /// Plans answered from carried-over classifications (patcher only).
    pub reused: usize,
    /// Metrics of the job's timed telemetry (traced passes only).
    pub telemetry: Option<MetricsSnapshot>,
}

impl JobOutput {
    fn new(summaries: Vec<Summary>, residual: usize, plans: u64) -> JobOutput {
        JobOutput {
            summaries,
            vulnerable: Vec::new(),
            hardened: None,
            residual,
            plans,
            iterations: 0,
            reused: 0,
            telemetry: None,
        }
    }

    /// Whether two runs of one job produced the same results.
    pub fn same_result(&self, other: &JobOutput) -> bool {
        let text = |o: &JobOutput| o.hardened.as_ref().map(|exe| exe.text_bytes().to_vec());
        self.summaries == other.summaries
            && self.vulnerable == other.vulnerable
            && self.residual == other.residual
            && self.plans == other.plans
            && self.iterations == other.iterations
            && self.reused == other.reused
            && text(self) == text(other)
    }
}

/// Runs one job. Library errors and panics become `Err`.
pub fn run_job(
    job: Job,
    studies: &[CaseStudy],
    tracer: &Tracer,
    telemetry: &Telemetry,
) -> Result<JobOutput, String> {
    let study = &studies[job.study()];
    let run = || match job {
        Job::Fault { .. } => fault_job(study, tracer, telemetry),
        Job::Patch { model, .. } => patch_job(study, model, tracer, telemetry),
    };
    let mut output = catch_unwind(AssertUnwindSafe(run))
        .unwrap_or_else(|_| Err("panicked".to_string()))
        .map_err(|e| format!("{}: {e}", job.id(studies)))?;
    output.telemetry = telemetry.metrics();
    Ok(output)
}

fn fault_job(
    study: &CaseStudy,
    tracer: &Tracer,
    telemetry: &Telemetry,
) -> Result<JobOutput, String> {
    let session = {
        let _span = tracer.span("fault.session_build");
        CampaignSession::builder(Arc::clone(&study.exe))
            .good_input(&study.good[..])
            .bad_input(&study.bad[..])
            .config(campaign_config())
            .telemetry(telemetry.clone())
            .build()
            .map_err(|e| e.to_string())?
    };
    let reports = {
        let _span = tracer.span("fault.run");
        session.run(&FAULTER_MODELS, Collect)
    };
    let summaries: Vec<Summary> = reports.iter().map(|r| r.summary()).collect();
    let residual = summaries.iter().map(|s| s.success).sum();
    let plans = summaries.iter().map(|s| s.total as u64).sum();
    let mut output = JobOutput::new(summaries, residual, plans);
    output.vulnerable = reports.iter().map(|r| r.vulnerable_pcs()).collect();
    Ok(output)
}

fn patch_job(
    study: &CaseStudy,
    model: Model,
    tracer: &Tracer,
    telemetry: &Telemetry,
) -> Result<JobOutput, String> {
    let config = HardenConfig {
        campaign: campaign_config(),
        telemetry: telemetry.clone(),
        ..HardenConfig::default()
    };
    let outcome = {
        let _span = tracer.span("patch.harden");
        FaulterPatcher::new(config)
            .harden(&study.exe, &study.good, &study.bad, model.fault_model())
            .map_err(|e| e.to_string())?
    };
    let summaries = outcome.iterations.iter().map(|it| it.summary).collect();
    let mut output =
        JobOutput::new(summaries, outcome.residual_vulnerabilities, outcome.sites_replayed as u64);
    output.iterations = outcome.iterations.len();
    output.reused = outcome.sites_reused;
    output.hardened = Some(Arc::new(outcome.hardened));
    Ok(output)
}

/// Runs every job once, in order, tagging spans with `pass`. Traced
/// passes attach a timed telemetry handle to each job.
pub fn run_pass(
    workload: Workload,
    jobs: &[Job],
    studies: &[CaseStudy],
    tracer: &Tracer,
    pass: usize,
) -> Vec<Result<JobOutput, String>> {
    jobs.iter()
        .map(|&job| {
            tracer.set_job(format!("pass{pass}/{workload}/{}", job.id(studies)));
            let telemetry =
                if tracer.enabled() { Telemetry::timed() } else { Telemetry::disabled() };
            let _span = tracer.span("job");
            run_job(job, studies, tracer, &telemetry)
        })
        .collect()
}
