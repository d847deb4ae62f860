//! The output check: every job's result against a reference recount with
//! the naive engine and the plain interpreter, and every hardened binary
//! against the original's behaviour.

use crate::workload::{campaign_config, CaseStudy, Job, JobOutput, FAULTER_MODELS, MAX_STEPS};
use rr_emu::execute;
use rr_fault::{
    CampaignConfig, CampaignEngine, CampaignReport, CampaignSession, Collect, ExecMode, FaultModel,
};
use rr_obj::Executable;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Checks one job's output. `Err` says what differs.
pub fn check_job(job: Job, output: &JobOutput, studies: &[CaseStudy]) -> Result<(), String> {
    let study = &studies[job.study()];
    let check = || match job {
        Job::Fault { .. } => {
            let reports = reference(&study.exe, study, &FAULTER_MODELS)?;
            for (i, report) in reports.iter().enumerate() {
                if output.summaries.get(i) != Some(&report.summary()) {
                    return Err(format!("{} summary differs from the reference", report.model));
                }
                if output.vulnerable.get(i) != Some(&report.vulnerable_pcs()) {
                    return Err(format!(
                        "{} vulnerable pcs differ from the reference",
                        report.model
                    ));
                }
            }
            Ok(())
        }
        Job::Patch { model, .. } => {
            let hardened = output.hardened.as_deref().ok_or("no hardened binary")?;
            keeps_behaviour(hardened, study)?;
            let recount = reference(hardened, study, &[model.fault_model()])?[0].summary().success;
            if output.residual != recount {
                return Err(format!(
                    "residual {} differs from the reference recount {recount}",
                    output.residual
                ));
            }
            Ok(())
        }
    };
    catch_unwind(AssertUnwindSafe(check))
        .unwrap_or_else(|_| Err("check panicked".to_string()))
        .map_err(|e| format!("{}: {e}", job.id(studies)))
}

/// The same campaign on the naive engine and the plain interpreter.
fn reference(
    exe: &Executable,
    study: &CaseStudy,
    models: &[&dyn FaultModel],
) -> Result<Vec<CampaignReport>, String> {
    let config = CampaignConfig {
        engine: CampaignEngine::Naive,
        exec: ExecMode::Interp,
        ..campaign_config()
    };
    let session = CampaignSession::builder(exe.clone())
        .good_input(&study.good[..])
        .bad_input(&study.bad[..])
        .config(config)
        .build()
        .map_err(|e| format!("reference campaign: {e}"))?;
    Ok(session.run(models, Collect))
}

/// The hardened binary must behave like the original on the good input,
/// the bad input and every further bad input.
fn keeps_behaviour(hardened: &Executable, study: &CaseStudy) -> Result<(), String> {
    let inputs = [&study.good, &study.bad].into_iter().chain(&study.more_bad);
    for input in inputs {
        let original = execute(&study.exe, input, MAX_STEPS);
        let now = execute(hardened, input, MAX_STEPS);
        if !now.same_behavior(&original) {
            return Err(format!("hardened binary changes behaviour on input {input:?}"));
        }
    }
    Ok(())
}

/// Good-input steps of the job's final binary (the original when the job
/// hardens nothing).
pub fn good_steps(study: &CaseStudy, output: &JobOutput) -> u64 {
    match &output.hardened {
        Some(hardened) => execute(hardened, &study.good, MAX_STEPS).steps,
        None => study.golden_good.steps,
    }
}

/// Code size of the job's final binary.
pub fn code_size(study: &CaseStudy, output: &JobOutput) -> u64 {
    output.hardened.as_ref().unwrap_or(&study.exe).code_size()
}
