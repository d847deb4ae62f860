//! Ablation: 1 vs 2 checksum copies in the branch-hardening pass
//! (`rr_harden::BranchHardening::copies`). Measures code size and
//! residual decision-path skip vulnerabilities on pincheck.

use rr_bench::{pct, rule};
use rr_core::{harden_hybrid, HybridConfig};
use rr_fault::{CampaignConfig, CampaignSession, Collect, FaultModel, InstructionSkip};

fn main() {
    let w = rr_workloads::pincheck();
    let exe = w.build().expect("workload builds");
    println!("Ablation — checksum copies in conditional branch hardening (pincheck)");
    rule(76);
    println!(
        "{:<8} {:>12} {:>12} {:>14} {:>14}",
        "copies", "code bytes", "overhead", "skip vulns", "skip crashes"
    );
    rule(76);
    for copies in [1usize, 2, 3] {
        let outcome =
            harden_hybrid(&exe, &HybridConfig { checksum_copies: copies, ..Default::default() })
                .expect("pipeline runs");
        let config = CampaignConfig {
            golden_max_steps: 100_000_000,
            faulted_min_steps: 100_000,
            ..Default::default()
        };
        let session = CampaignSession::builder(outcome.hardened.clone())
            .good_input(&w.good_input[..])
            .bad_input(&w.bad_input[..])
            .config(config)
            .build()
            .expect("session setup");
        let summary = session
            .run(&[&InstructionSkip as &dyn FaultModel], Collect)
            .pop()
            .expect("one report")
            .summary();
        println!(
            "{:<8} {:>12} {:>12} {:>14} {:>14}",
            copies,
            outcome.hardened.code_size(),
            pct(outcome.overhead_percent()),
            summary.success,
            summary.crashed,
        );
    }
    rule(76);
}
