//! Execution-mode equivalence: the accelerated tiers — pre-decoded
//! superblock execution ([`rr_fault::ExecMode::Blocks`]) and compiled
//! micro-op traces ([`rr_fault::ExecMode::Uops`], the default) — must
//! classify every fault exactly like the per-step interpreter
//! ([`rr_fault::ExecMode::Interp`]), for every workload, engine,
//! thread count, and bucketing choice.
//!
//! This is the bit-identity contract the acceleration rests on: both
//! tiers run the *same* decoded instructions over the *same* bytes
//! (the uop tier additionally pre-lowers hot bodies and defers NZCV
//! materialization, but never past an observable point), fall back to
//! interpretation over any code the session modified (injections mark
//! their ranges exec-dirty), and stop at exactly the same step for
//! fences, budgets, crashes, and exits. Any divergence here is a bug in
//! the block cache (stale decode, missed self-modification), the uop
//! compiler (wrong lowering, flags materialized too lazily), or the
//! fence arithmetic, and would silently corrupt campaign results — so
//! the comparison is on full reports, fault by fault.

use rr_fault::{
    CampaignConfig, CampaignEngine, CampaignReport, CampaignSession, Collect, ExecMode, FaultModel,
    InstructionSkip, OptLevel, PairPolicy, PlanConfig, SingleBitFlip, UopConfig,
};
use rr_workloads::Workload;

/// Both accelerated tiers — the uop tier at both optimization levels —
/// each compared against the interpreter.
fn accel_configs() -> [(ExecMode, UopConfig); 3] {
    [
        (ExecMode::Blocks, UopConfig::default()),
        (ExecMode::Uops, UopConfig { opt: OptLevel::None, ..UopConfig::default() }),
        (ExecMode::Uops, UopConfig::default()),
    ]
}

fn session(w: &Workload, config: CampaignConfig) -> CampaignSession {
    CampaignSession::builder(w.build().unwrap_or_else(|e| panic!("{}: build failed: {e}", w.name)))
        .good_input(&w.good_input[..])
        .bad_input(&w.bad_input[..])
        .config(config)
        .build()
        .unwrap_or_else(|e| panic!("{}: session setup failed: {e}", w.name))
}

fn run_one(s: &CampaignSession, model: &dyn FaultModel) -> CampaignReport {
    s.run(&[model], Collect).pop().expect("one report per model")
}

fn assert_reports_equal(a: &CampaignReport, b: &CampaignReport, context: &str) {
    assert_eq!(a.results.len(), b.results.len(), "{context}: fault counts differ");
    for (x, y) in a.results.iter().zip(&b.results) {
        assert_eq!(
            x,
            y,
            "{context}: classification diverged at step {} pc {:#x}",
            x.fault().step,
            x.fault().pc
        );
    }
}

/// Every workload, both engines, bucketing on and off, serial and
/// parallel: interp, blocks, and uops classify identically, report for
/// report.
#[test]
fn accelerated_tiers_match_interp_across_workloads_engines_and_scheduling() {
    for w in rr_workloads::all_workloads() {
        // Keep the grid affordable: skip is exhaustive on every
        // workload, and strided bit flips cover the code-corrupting
        // effect that sends execution through the per-run overlay of
        // blocks decoded from the corrupted bytes.
        for (engine, bucketing, threads) in [
            (CampaignEngine::Checkpointed, true, 1),
            (CampaignEngine::Checkpointed, false, 1),
            (CampaignEngine::Checkpointed, true, 4),
            (CampaignEngine::Naive, false, 1),
        ] {
            let base = CampaignConfig {
                engine,
                bucketing,
                threads,
                site_stride: 2,
                ..CampaignConfig::default()
            };
            let interp = session(&w, CampaignConfig { exec: ExecMode::Interp, ..base.clone() });
            let interp_skip = run_one(&interp, &InstructionSkip);
            let interp_flip = run_one(&interp, &SingleBitFlip);
            for (exec, uop) in accel_configs() {
                let context = format!(
                    "{} engine={engine} bucketing={bucketing} threads={threads} exec={exec} opt={}",
                    w.name, uop.opt
                );
                let fast = session(&w, CampaignConfig { exec, uop, ..base.clone() });
                assert_reports_equal(
                    &interp_skip,
                    &run_one(&fast, &InstructionSkip),
                    &format!("{context} skip"),
                );
                assert_reports_equal(
                    &interp_flip,
                    &run_one(&fast, &SingleBitFlip),
                    &format!("{context} bitflip"),
                );
                assert_eq!(
                    run_one(&fast, &InstructionSkip).summary().diverged,
                    0,
                    "{context}: accelerated replay diverged"
                );
            }
        }
    }
}

/// Multi-fault plans inject at several timed points of one continuation;
/// both accelerated tiers must honour every intermediate fence exactly.
#[test]
fn accelerated_tiers_match_interp_for_double_fault_plans() {
    let w = rr_workloads::pincheck();
    let base = CampaignConfig {
        plan: PlanConfig {
            order: 2,
            policy: PairPolicy::WithinWindow { max_gap: 6 },
            budget: Some(2_000),
            seed: 7,
        },
        ..CampaignConfig::default()
    };
    let interp = session(&w, CampaignConfig { exec: ExecMode::Interp, ..base.clone() });
    let interp_report = run_one(&interp, &InstructionSkip);
    for (exec, uop) in accel_configs() {
        let fast = session(&w, CampaignConfig { exec, uop, ..base.clone() });
        assert_reports_equal(
            &interp_report,
            &run_one(&fast, &InstructionSkip),
            &format!("pincheck order-2 skip exec={exec} opt={}", uop.opt),
        );
    }
}

/// The default config really is uop-compiled: an explicitly-interp
/// session and a default one still agree on a full campaign, and an
/// eager-compile threshold agrees with the tiered default.
#[test]
fn default_session_is_uop_compiled_and_equivalent() {
    assert_eq!(CampaignConfig::default().exec, ExecMode::Uops);
    let w = rr_workloads::otp_check();
    let default = session(&w, CampaignConfig::default());
    let interp =
        session(&w, CampaignConfig { exec: ExecMode::Interp, ..CampaignConfig::default() });
    let default_report = run_one(&default, &InstructionSkip);
    assert_reports_equal(
        &run_one(&interp, &InstructionSkip),
        &default_report,
        "otp default-vs-interp",
    );
    // Eager compilation (threshold 0) must not change a single verdict
    // relative to the tiered default threshold.
    let eager = session(
        &w,
        CampaignConfig {
            uop: UopConfig { hot_threshold: 0, ..UopConfig::default() },
            ..CampaignConfig::default()
        },
    );
    assert_reports_equal(
        &default_report,
        &run_one(&eager, &InstructionSkip),
        "otp tiered-vs-eager",
    );
    // The default session runs the optimized uop traces
    // (`OptLevel::Full`); switching the optimizer off must not change a
    // verdict either.
    assert_eq!(CampaignConfig::default().uop.opt, OptLevel::Full);
    let unopt = session(
        &w,
        CampaignConfig {
            uop: UopConfig { opt: OptLevel::None, ..UopConfig::default() },
            ..CampaignConfig::default()
        },
    );
    assert_reports_equal(
        &default_report,
        &run_one(&unopt, &InstructionSkip),
        "otp opt-full-vs-none",
    );
}
