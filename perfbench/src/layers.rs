//! The traced run: per-layer metrics from the benchmark's own spans
//! around each layer's public calls, and from the toolchain's
//! `rr-telemetry` counters and spans.
//!
//! It has three parts:
//! 1. the closed loop again, alternating untraced and traced passes of
//!    the workload's jobs (spans around `CampaignSession::build`/`run` and
//!    `FaulterPatcher::harden`; a timed telemetry handle per job);
//! 2. layer probes on the binaries the workload campaigns against (the
//!    originals for `faulter`, the hardened outputs otherwise): golden
//!    runs per execution tier, recording and positioning, the static
//!    analysis;
//! 3. rewrite probes on the original binaries: disassembly, patching,
//!    reassembly, and the hybrid lift/optimize/harden/lower steps.
//!
//! Layer calls a workload's jobs do not make from the benchmark
//! (`CampaignSession` calls inside `harden` on `patcher`, `harden` on
//! `faulter`) are probed directly on the same binaries.

use crate::trace::{SpanRecord, Tracer};
use crate::workload::{campaign_config, Job, JobOutput, Model, Workload, MAX_STEPS};
use crate::{median, timed_passes, Ledger, Metric, RunSpec};
use rr_core::{FaulterPatcher, HardenConfig};
use rr_emu::{BlockStats, Machine, UopConfig};
use rr_engine::{build_block_cache, ReplayConfig, ReplayEngine};
use rr_fault::{Analysis, CampaignSession, Collect, FaultModel, InstructionSkip};
use rr_ir::passes::{DeadCodeElimination, PromoteCells};
use rr_ir::{Pass, PassManager};
use rr_obj::Executable;
use rr_telemetry::{Counter, MetricsSnapshot, SpanKind, Telemetry};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Sweeps of the cheap layer probes; metrics are medians over sweeps.
const PROBE_SWEEPS: usize = 5;
/// Sweeps of the campaign and hardening probes.
const CAMPAIGN_SWEEPS: usize = 3;
/// Steps each execution tier runs per target and sweep.
const EMU_STEPS: u64 = 100_000;
/// Machines built ahead of one timed batch of golden runs.
const EMU_BATCH: u64 = 64;
/// Uniformly spaced `machine_at` positions per target.
const POSITIONS: u64 = 16;
/// Iterations of the calibration loop (4 instructions each).
const CALIBRATION_ITERATIONS: u64 = 200_000;

/// A binary the workload campaigns against, with its bad input.
struct Target {
    label: String,
    exe: Arc<Executable>,
    good: Vec<u8>,
    input: Vec<u8>,
    model: &'static dyn FaultModel,
}

/// Runs the traced part of a `--trace 1` run and derives the per-layer
/// metrics.
///
/// # Errors
///
/// A probe whose library call fails, or a trace file that cannot be
/// written.
pub fn traced_run(
    run: RunSpec<'_>,
    ledger: &mut Ledger,
    out_dir: &Path,
) -> Result<Vec<Metric>, String> {
    let tracer = Tracer::new(true);
    let mut pass_telemetry = Vec::new();
    let times = timed_passes(run, ledger, &tracer, |outputs| {
        let merged = outputs
            .iter()
            .filter_map(|out| out.as_ref().ok()?.telemetry.clone())
            .fold(MetricsSnapshot::default(), |acc, snap| acc.merge(&snap));
        pass_telemetry.push(merged);
    });

    let targets = targets(run);
    let mut emu_steps = 0;
    let mut engine_state = (0, 0);
    for sweep in 0..PROBE_SWEEPS {
        emu_steps = 0;
        engine_state = (0, 0);
        for target in &targets {
            tracer.set_job(format!("probe{sweep}/{}/{}", run.workload, target.label));
            emu_steps += probe_emu(&tracer, target);
            let (checkpoints, retained) = probe_engine(&tracer, target)?;
            engine_state = (engine_state.0 + checkpoints, engine_state.1 + retained);
            let _span = tracer.span("analysis.from_executable");
            Analysis::from_executable(&target.exe).map_err(|e| e.to_string())?;
        }
    }
    let mut ops_after = 0;
    let vulnerable = skip_vulnerable_pcs(run)?;
    for sweep in 0..PROBE_SWEEPS {
        ops_after = 0;
        for (study, pcs) in run.studies.iter().zip(&vulnerable) {
            tracer.set_job(format!("probe{sweep}/{}/{}", run.workload, study.name));
            ops_after += probe_rewrite(&tracer, &study.exe, pcs)?;
        }
    }
    let (iterations, reused, replayed) = match run.workload {
        Workload::Patcher => {
            probe_campaigns(&tracer, run.workload, &targets)?;
            let outputs: Vec<&JobOutput> =
                run.checked.iter().filter_map(|o| o.as_ref().ok()).collect();
            (
                outputs.iter().map(|o| o.iterations).sum(),
                outputs.iter().map(|o| o.reused).sum(),
                outputs.iter().map(|o| o.plans as usize).sum(),
            )
        }
        Workload::Faulter => probe_harden(&tracer, run)?,
    };
    let calibration = calibrate(&tracer)?;

    let spans = tracer.spans();
    write_trace(out_dir, run, &tracer, &pass_telemetry)?;
    let per_group = |name| group_median(&spans, name, |total, _| total);
    let per_call = |name| group_median(&spans, name, |total, calls| total / calls as f64);
    let ms = 1e-6;
    let us = 1e-3;

    // Telemetry of the traced passes, one value per pass, then medians.
    let per_pass = |f: &dyn Fn(&MetricsSnapshot, f64) -> f64| {
        median(&pass_telemetry.iter().zip(&times.traced).map(|(m, &s)| f(m, s)).collect::<Vec<_>>())
    };
    let steps = |m: &MetricsSnapshot| {
        (m.counter(Counter::BlockSteps)
            + m.counter(Counter::InterpSteps)
            + m.counter(Counter::UopSteps)) as f64
    };
    let executed = |m: &MetricsSnapshot| {
        (m.counter(Counter::PlansExecuted) - m.counter(Counter::CacheHits)) as f64
    };
    let span_ns = |m: &MetricsSnapshot, kind| m.span(kind).total_ns as f64;
    let covered = |m: &MetricsSnapshot| {
        [SpanKind::Record, SpanKind::Restore, SpanKind::Inject, SpanKind::Classify]
            .into_iter()
            .map(|kind| span_ns(m, kind))
            .sum::<f64>()
    };
    let (timed_out, total) = run
        .checked
        .iter()
        .filter_map(|o| o.as_ref().ok())
        .flat_map(|o| &o.summaries)
        .fold((0, 0), |(t, n), s| (t + s.timed_out, n + s.total));

    Ok(vec![
        Metric::new("fault.session_build_ms", per_group("fault.session_build") * ms, "ms"),
        Metric::new("fault.run_ms", per_group("fault.run") * ms, "ms"),
        Metric::new("fault.steps_per_plan", per_pass(&|m, _| steps(m) / executed(m)), "steps"),
        Metric::new("fault.timed_out_pct", 100.0 * timed_out as f64 / total as f64, "%"),
        Metric::new(
            "fault.inject_self_ms",
            per_pass(&|m, _| span_ns(m, SpanKind::Inject) * ms),
            "ms",
        ),
        Metric::new(
            "fault.restore_self_ms",
            per_pass(&|m, _| span_ns(m, SpanKind::Restore) * ms),
            "ms",
        ),
        Metric::new(
            "fault.classify_self_ms",
            per_pass(&|m, _| span_ns(m, SpanKind::Classify) * ms),
            "ms",
        ),
        Metric::new(
            "fault.unattributed_pct",
            per_pass(&|m, s| {
                let thread_ns = crate::workload::THREADS as f64 * s * 1e9;
                100.0 * (1.0 - covered(m) / thread_ns)
            }),
            "%",
        ),
        Metric::new("emu.interp_ns_per_step", per_group("emu.run") / emu_steps as f64, "ns"),
        Metric::new("emu.blocks_ns_per_step", per_group("emu.run_blocks") / emu_steps as f64, "ns"),
        Metric::new("emu.uops_ns_per_step", per_group("emu.run_uops") / emu_steps as f64, "ns"),
        Metric::new(
            "emu.interp_step_pct",
            per_pass(&|m, _| 100.0 * m.counter(Counter::InterpSteps) as f64 / steps(m)),
            "%",
        ),
        Metric::new("engine.record_ms", per_group("engine.record") * ms, "ms"),
        Metric::new("engine.position_us", per_call("engine.machine_at") * us, "us"),
        Metric::new("engine.checkpoints", engine_state.0 as f64, "count"),
        Metric::new("engine.retained_kb", engine_state.1 as f64 / 1024.0, "KiB"),
        Metric::new("analysis.build_us", per_group("analysis.from_executable") * us, "us"),
        Metric::new(
            "analysis.pruned_pct",
            per_pass(&|m, _| {
                let pruned = m.counter(Counter::PlansPrunedStatic) as f64;
                100.0 * pruned / (pruned + m.counter(Counter::PlansExecuted) as f64)
            }),
            "%",
        ),
        Metric::new("patch.harden_ms", per_group("patch.harden") * ms, "ms"),
        Metric::new("patch.iterations", iterations as f64, "count"),
        Metric::new("patch.reuse_pct", 100.0 * reused as f64 / (reused + replayed) as f64, "%"),
        Metric::new("patch.apply_patterns_us", per_group("patch.apply_patterns") * us, "us"),
        Metric::new("disasm.disassemble_us", per_group("disasm.disassemble") * us, "us"),
        Metric::new("asm.reassemble_us", per_group("asm.reassemble") * us, "us"),
        Metric::new("lift.lift_us", per_group("lift.lift") * us, "us"),
        Metric::new("ir.opt_us", per_group("ir.opt") * us, "us"),
        Metric::new("harden.branch_us", per_group("harden.branch") * us, "us"),
        Metric::new("lower.compile_us", per_group("lower.compile") * us, "us"),
        Metric::new("ir.ops_after", ops_after as f64, "count"),
        Metric::new(
            "telemetry.trace_overhead_pct",
            100.0 * (median(&times.traced) / median(&times.untraced) - 1.0),
            "%",
        ),
        Metric::new("host.interp_ns_per_step", calibration, "ns"),
    ])
}

/// The binaries the workload's campaigns run against.
fn targets(run: RunSpec<'_>) -> Vec<Target> {
    run.jobs
        .iter()
        .zip(run.checked)
        .filter_map(|(&job, output)| {
            let study = &run.studies[job.study()];
            let output = output.as_ref().ok();
            let (exe, model) = match job {
                Job::Fault { .. } => (Arc::clone(&study.exe), Model::Skip.fault_model()),
                Job::Patch { model, .. } => {
                    (Arc::clone(output?.hardened.as_ref()?), model.fault_model())
                }
            };
            Some(Target {
                label: job.id(run.studies),
                exe,
                good: study.good.clone(),
                input: study.bad.clone(),
                model,
            })
        })
        .collect()
}

/// Golden runs through `Machine::run`, `run_blocks` and `run_uops`, about
/// [`EMU_STEPS`] per tier; machines are built outside the spans. Returns
/// the steps each tier ran.
fn probe_emu(tracer: &Tracer, target: &Target) -> u64 {
    let cache = build_block_cache(&target.exe, &Telemetry::disabled());
    let steps = Machine::new(&target.exe, &target.input).run(MAX_STEPS).steps.max(1);
    let runs = (EMU_STEPS / steps).max(1);
    let mut stats = BlockStats::default();
    for tier in ["emu.run", "emu.run_blocks", "emu.run_uops"] {
        let mut left = runs;
        while left > 0 {
            let batch = left.min(EMU_BATCH);
            let mut machines: Vec<Machine> =
                (0..batch).map(|_| Machine::new(&target.exe, &target.input)).collect();
            let _span = tracer.span(tier);
            for machine in &mut machines {
                match (tier, &cache) {
                    ("emu.run_blocks", Some(cache)) => {
                        machine.run_blocks(cache, MAX_STEPS, &mut stats);
                    }
                    ("emu.run_uops", Some(cache)) => {
                        machine.run_uops(cache, UopConfig::default(), MAX_STEPS, &mut stats);
                    }
                    _ => {
                        machine.run(MAX_STEPS);
                    }
                }
            }
            left -= batch;
        }
    }
    runs * steps
}

/// Records the golden bad run with checkpoints, then positions machines
/// at uniformly spaced steps. Returns the checkpoint count and retained
/// bytes.
fn probe_engine(tracer: &Tracer, target: &Target) -> Result<(usize, u64), String> {
    let config = ReplayConfig {
        max_steps: MAX_STEPS,
        block_cache: build_block_cache(&target.exe, &Telemetry::disabled()),
        ..ReplayConfig::default()
    };
    let engine = {
        let _span = tracer.span("engine.record");
        ReplayEngine::record(&target.exe, &target.input, &config)
    };
    let steps = engine.execution().steps;
    for k in 0..POSITIONS {
        let _span = tracer.span("engine.machine_at");
        engine.machine_at(k * steps / POSITIONS).map_err(|e| format!("{e:?}"))?;
    }
    Ok((engine.checkpoint_count(), engine.retained_bytes()))
}

/// Vulnerable pcs of a skip campaign on each original binary: the patch
/// sites of the rewrite probe.
fn skip_vulnerable_pcs(run: RunSpec<'_>) -> Result<Vec<BTreeSet<u64>>, String> {
    run.studies
        .iter()
        .map(|study| {
            let session = CampaignSession::builder(Arc::clone(&study.exe))
                .good_input(&study.good[..])
                .bad_input(&study.bad[..])
                .config(campaign_config())
                .build()
                .map_err(|e| e.to_string())?;
            Ok(session.run(&[&InstructionSkip], Collect)[0].vulnerable_pcs())
        })
        .collect()
}

/// One Faulter+Patcher rewrite and one hybrid lift/harden/lower of an
/// original binary, a span per layer call. Returns the IR op count after
/// branch hardening.
fn probe_rewrite(
    tracer: &Tracer,
    exe: &Executable,
    vulnerable: &BTreeSet<u64>,
) -> Result<usize, String> {
    let mut listing = {
        let _span = tracer.span("disasm.disassemble");
        rr_disasm::disassemble(exe).map_err(|e| e.to_string())?.listing
    };
    {
        let _span = tracer.span("patch.apply_patterns");
        rr_patch::apply_patterns(&mut listing, vulnerable);
    }
    {
        let _span = tracer.span("asm.reassemble");
        rr_asm::assemble_and_link(&listing.to_source()).map_err(|e| e.to_string())?;
    }
    let mut lifted = {
        let _span = tracer.span("lift.lift");
        rr_lift::lift(exe).map_err(|e| e.to_string())?
    };
    {
        let _span = tracer.span("ir.opt");
        let mut passes = PassManager::new();
        passes.add(PromoteCells);
        passes.add(DeadCodeElimination);
        passes.run(&mut lifted.module).map_err(|(pass, e)| format!("{pass}: {e}"))?;
    }
    {
        let _span = tracer.span("harden.branch");
        rr_harden::BranchHardening::with_copies(2).run(&mut lifted.module);
    }
    let ops_after = lifted.module.placed_op_count();
    {
        let _span = tracer.span("lower.compile");
        rr_lower::compile(&lifted).map_err(|e| e.to_string())?;
    }
    Ok(ops_after)
}

/// `CampaignSession::build` and `run` on each hardened binary with the
/// model it was hardened against (`patcher`, whose jobs build their
/// sessions inside `harden`).
fn probe_campaigns(tracer: &Tracer, workload: Workload, targets: &[Target]) -> Result<(), String> {
    for sweep in 0..CAMPAIGN_SWEEPS {
        for target in targets {
            tracer.set_job(format!("campaign{sweep}/{workload}/{}", target.label));
            let session = {
                let _span = tracer.span("fault.session_build");
                CampaignSession::builder(Arc::clone(&target.exe))
                    .good_input(&target.good[..])
                    .bad_input(&target.input[..])
                    .config(campaign_config())
                    .build()
                    .map_err(|e| e.to_string())?
            };
            let _span = tracer.span("fault.run");
            session.run(&[target.model], Collect);
        }
    }
    Ok(())
}

/// `FaulterPatcher::harden` against instruction skip on each original
/// binary (`faulter`, whose jobs do not harden). Returns iterations, reused plans and executed plans of one
/// sweep.
fn probe_harden(tracer: &Tracer, run: RunSpec<'_>) -> Result<(usize, usize, usize), String> {
    let mut totals = (0, 0, 0);
    for sweep in 0..CAMPAIGN_SWEEPS {
        totals = (0, 0, 0);
        for study in run.studies {
            tracer.set_job(format!("harden{sweep}/{}/{}", run.workload, study.name));
            let config = HardenConfig { campaign: campaign_config(), ..HardenConfig::default() };
            let outcome = {
                let _span = tracer.span("patch.harden");
                FaulterPatcher::new(config)
                    .harden(&study.exe, &study.good, &study.bad, &InstructionSkip)
                    .map_err(|e| e.to_string())?
            };
            totals.0 += outcome.iterations.len();
            totals.1 += outcome.sites_reused;
            totals.2 += outcome.sites_replayed;
        }
    }
    Ok(totals)
}

/// Host calibration: interpreter ns/step on a fixed counting loop,
/// median of five runs.
fn calibrate(tracer: &Tracer) -> Result<f64, String> {
    let source = format!(
        "    .global _start\n    .text\n_start:\n    mov r1, 0\n    mov r2, {CALIBRATION_ITERATIONS}\n\
         .loop:\n    add r1, 3\n    sub r2, 1\n    cmp r2, 0\n    jne .loop\n    mov r1, 0\n    svc 0\n"
    );
    let exe = rr_asm::assemble_and_link(&source).map_err(|e| e.to_string())?;
    tracer.set_job("calibration".to_string());
    let samples: Vec<f64> = (0..5)
        .map(|_| {
            let mut machine = Machine::new(&exe, &[]);
            let _span = tracer.span("host.calibrate");
            let start = Instant::now();
            let steps = machine.run(u64::MAX).steps;
            start.elapsed().as_nanos() as f64 / steps as f64
        })
        .collect();
    Ok(median(&samples))
}

/// Median over span groups (`pass3`, `probe1`, … — the first component of
/// the job tag) of `reduce(total ns, calls)` of the spans named `name`.
fn group_median(spans: &[SpanRecord], name: &str, reduce: impl Fn(f64, usize) -> f64) -> f64 {
    let mut groups: BTreeMap<&str, (f64, usize)> = BTreeMap::new();
    for span in spans.iter().filter(|s| s.name == name) {
        let group = span.job.split('/').next().unwrap_or_default();
        let entry = groups.entry(group).or_default();
        entry.0 += span.duration_ns() as f64;
        entry.1 += 1;
    }
    median(&groups.values().map(|&(total, calls)| reduce(total, calls)).collect::<Vec<_>>())
}

/// Writes the spans (with self times) and each traced pass's telemetry
/// snapshot to `<out_dir>/trace-<workload>-seed<seed>.jsonl`.
fn write_trace(
    out_dir: &Path,
    run: RunSpec<'_>,
    tracer: &Tracer,
    pass_telemetry: &[MetricsSnapshot],
) -> Result<(), String> {
    let mut out = format!("{{\"workload\":\"{}\",\"seed\":{}}}\n", run.workload, run.seed);
    out.push_str(&tracer.to_jsonl());
    for (i, snapshot) in pass_telemetry.iter().enumerate() {
        let _ = writeln!(out, "{{\"traced_pass\":{i},\"telemetry\":{}}}", snapshot.to_json());
    }
    std::fs::create_dir_all(out_dir).map_err(|e| format!("{}: {e}", out_dir.display()))?;
    let path = out_dir.join(format!("trace-{}-seed{}.jsonl", run.workload, run.seed));
    std::fs::write(&path, out).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(())
}
