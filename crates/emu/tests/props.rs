//! Property tests for the emulator: determinism, crash-freedom of the
//! host, and agreement between `run` and manual stepping.

use proptest::prelude::*;
use rr_asm::assemble_and_link;
use rr_emu::{execute, BlockCache, BlockStats, Machine, OptLevel, RunOutcome, UopConfig};
use rr_obj::Executable;

/// Random but *assemblable* straight-line programs over safe instructions
/// (no unbalanced memory, no control flow — those are covered by
/// targeted tests). Balanced `push`/`pop` pairs, `not`/`neg`, and dead
/// compares are included so the uop optimizer's forwarding and
/// flag-elimination paths see real work.
fn safe_line() -> impl Strategy<Value = String> {
    let reg = (0u8..14).prop_map(|i| format!("r{i}"));
    prop_oneof![
        (reg.clone(), any::<i32>()).prop_map(|(r, v)| format!("mov {r}, {v}")),
        (reg.clone(), reg.clone()).prop_map(|(a, b)| format!("add {a}, {b}")),
        (reg.clone(), reg.clone()).prop_map(|(a, b)| format!("sub {a}, {b}")),
        (reg.clone(), reg.clone()).prop_map(|(a, b)| format!("mul {a}, {b}")),
        (reg.clone(), reg.clone()).prop_map(|(a, b)| format!("xor {a}, {b}")),
        (reg.clone(), 0u8..64).prop_map(|(r, v)| format!("shl {r}, {v}")),
        (reg.clone(), 0u8..64).prop_map(|(r, v)| format!("sar {r}, {v}")),
        (reg.clone(), any::<i32>()).prop_map(|(r, v)| format!("cmp {r}, {v}")),
        (reg.clone(), reg.clone()).prop_map(|(a, b)| format!("test {a}, {b}")),
        (reg.clone()).prop_map(|r| format!("not {r}")),
        (reg.clone()).prop_map(|r| format!("neg {r}")),
        (reg.clone(), reg).prop_map(|(a, b)| format!("push {a}\n    pop {b}")),
        Just("nop".to_owned()),
        Just("pushf".to_owned()),
        Just("popf".to_owned()),
    ]
}

fn program(lines: &[String]) -> String {
    let mut src = String::from("    .global _start\n_start:\n");
    for line in lines {
        src.push_str("    ");
        src.push_str(line);
        src.push('\n');
    }
    src.push_str("    mov r1, r2\n    and r1, 0xff\n    svc 0\n");
    src
}

/// Like [`program`], but the random body runs inside a countdown loop so
/// the block executor sees real control flow (back edges, a conditional
/// exit) instead of one straight-line superblock.
fn looped_program(lines: &[String], iters: u64) -> String {
    let mut src = format!("    .global _start\n_start:\n    mov r13, {iters}\n.loop:\n");
    for line in lines {
        src.push_str("    ");
        src.push_str(line);
        src.push('\n');
    }
    src.push_str("    sub r13, 1\n    cmp r13, 0\n    jne .loop\n");
    src.push_str("    mov r1, r2\n    and r1, 0xff\n    svc 0\n");
    src
}

/// Runs `machine` to completion through the block executor in
/// `chunk`-step slices (so fences land at arbitrary mid-block steps) and
/// returns `(outcome, total_steps)`.
fn run_blocks_chunked(
    machine: &mut Machine,
    cache: &BlockCache,
    chunk: u64,
    max_steps: u64,
) -> (RunOutcome, u64) {
    let mut stats = BlockStats::default();
    let mut total = 0u64;
    while machine.stopped().is_none() && total < max_steps {
        let result = machine.run_blocks(cache, chunk.min(max_steps - total), &mut stats);
        total += result.steps;
    }
    (machine.stopped().unwrap_or(RunOutcome::TimedOut), total)
}

/// [`run_blocks_chunked`] for the uop tier: drives `run_uops` in
/// `chunk`-step slices under the given tiering threshold.
fn run_uops_chunked(
    machine: &mut Machine,
    cache: &BlockCache,
    config: UopConfig,
    chunk: u64,
    max_steps: u64,
) -> (RunOutcome, u64) {
    let mut stats = BlockStats::default();
    let mut total = 0u64;
    while machine.stopped().is_none() && total < max_steps {
        let result = machine.run_uops(cache, config, chunk.min(max_steps - total), &mut stats);
        total += result.steps;
    }
    (machine.stopped().unwrap_or(RunOutcome::TimedOut), total)
}

/// Flips bit `bit` of the text byte at `offset` — the bit-flip fault
/// model's corruption of an instruction encoding.
fn flip_text_bit(machine: &mut Machine, exe: &Executable, offset: prop::sample::Index, bit: u8) {
    let text = exe.text_range();
    let addr = text.start + offset.index((text.end - text.start) as usize) as u64;
    let byte = machine.peek_bytes(addr, 1).expect("text is mapped")[0];
    assert!(machine.poke_bytes(addr, &[byte ^ (1 << bit)]));
}

/// Drives `run` (one tier's bounded run) in `chunk`-step slices up to
/// `max_steps`, applying `flip` once the step count reaches `flip_at` —
/// between two chunks, so the run resumes over code that changed since
/// its blocks were last decoded. Returns `(outcome, total_steps)`.
fn run_chunked_with_flip(
    machine: &mut Machine,
    run: &mut dyn FnMut(&mut Machine, u64) -> u64,
    chunk: u64,
    flip_at: u64,
    flip: &dyn Fn(&mut Machine),
    max_steps: u64,
) -> (RunOutcome, u64) {
    let mut total = 0u64;
    let mut flipped = false;
    while machine.stopped().is_none() && total < max_steps {
        if !flipped && total >= flip_at {
            flip(machine);
            flipped = true;
        }
        let limit = if flipped { max_steps } else { flip_at };
        total += run(machine, chunk.min(limit - total));
    }
    (machine.stopped().unwrap_or(RunOutcome::TimedOut), total)
}

/// Asserts `got` ended in exactly `want`'s architectural state.
fn assert_same_state(label: &str, got: &Machine, want: &Machine) {
    prop_assert_eq!(got.pc(), want.pc(), "{} pc", label);
    prop_assert_eq!(got.flags(), want.flags(), "{} flags", label);
    for i in 0..16u8 {
        let reg = rr_isa::Reg::from_index(i);
        prop_assert_eq!(got.reg(reg), want.reg(reg), "{} r{}", label, i);
    }
    prop_assert_eq!(got.output(), want.output(), "{} output", label);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Identical runs produce identical executions, bit for bit.
    #[test]
    fn execution_is_deterministic(lines in proptest::collection::vec(safe_line(), 0..32)) {
        let exe = assemble_and_link(&program(&lines)).expect("program builds");
        let a = execute(&exe, &[], 100_000);
        let b = execute(&exe, &[], 100_000);
        prop_assert_eq!(a, b);
    }

    /// `run` and manual single-stepping agree on the outcome.
    #[test]
    fn stepping_agrees_with_run(lines in proptest::collection::vec(safe_line(), 0..16)) {
        let exe = assemble_and_link(&program(&lines)).expect("program builds");
        let run_result = {
            let mut m = Machine::new(&exe, &[]);
            m.run(100_000)
        };
        let step_result = {
            let mut m = Machine::new(&exe, &[]);
            let mut steps = 0u64;
            while m.stopped().is_none() && steps < 100_000 {
                let _ = m.step();
                steps += 1;
            }
            m.stopped().expect("straight-line programs terminate")
        };
        prop_assert_eq!(run_result.outcome, step_result);
    }

    /// Random single-byte corruption of the code never breaks the *host*:
    /// the machine either runs to some outcome or crashes cleanly.
    #[test]
    fn corrupted_binaries_cannot_harm_the_host(
        lines in proptest::collection::vec(safe_line(), 1..16),
        offset in any::<prop::sample::Index>(),
        flip in 1u8..=255,
    ) {
        let exe = assemble_and_link(&program(&lines)).expect("program builds");
        let mut m = Machine::new(&exe, &[]);
        let text = exe.text_range();
        let len = (text.end - text.start) as usize;
        let addr = text.start + offset.index(len) as u64;
        let byte = m.peek_bytes(addr, 1).expect("text is mapped")[0];
        m.poke_bytes(addr, &[byte ^ flip]);
        let result = m.run(50_000);
        // Any outcome is fine; the property is that we got one.
        let _ = result.outcome;
    }

    /// Bit-flipped code runs bit-identically on every tier. A random
    /// looped program gets one random bit flipped in its text before the
    /// run and a second one between two chunks of it; the interpreter,
    /// `run_blocks` and `run_uops` (thresholds {0, 1, 8} × opt {none,
    /// full}), each driven in random chunks, must then agree on outcome,
    /// step count, pc, flags, registers and output. Caches with one
    /// leader (a single superblock entered mid-body) and with every text
    /// offset as a leader are both exercised.
    #[test]
    fn corrupted_code_runs_identically_on_every_tier(
        lines in proptest::collection::vec(safe_line(), 1..16),
        iters in 1u64..6,
        chunk in 1u64..97,
        first in any::<prop::sample::Index>(),
        first_bit in 0u8..8,
        second in any::<prop::sample::Index>(),
        second_bit in 0u8..8,
        second_at in 0u64..200,
        every_offset_leads in any::<bool>(),
    ) {
        let exe = assemble_and_link(&looped_program(&lines, iters)).expect("program builds");
        let text = exe.text_range();
        let max_steps = 5_000u64;
        let flip_second = |m: &mut Machine| flip_text_bit(m, &exe, second, second_bit);
        let fresh = || {
            let mut m = Machine::new(&exe, &[]);
            flip_text_bit(&mut m, &exe, first, first_bit);
            m
        };
        let cache = || {
            let leaders: Vec<u64> =
                if every_offset_leads { (text.start..text.end).collect() } else { vec![exe.entry] };
            BlockCache::build(&exe, leaders).expect("original text decodes")
        };

        let mut interp = fresh();
        let mut want = interp.run(second_at);
        if interp.stopped().is_none() {
            flip_second(&mut interp);
            want.steps += interp.run(max_steps - want.steps).steps;
        }
        let want_outcome = interp.stopped().unwrap_or(RunOutcome::TimedOut);

        let mut chunked = fresh();
        let got = run_chunked_with_flip(
            &mut chunked, &mut |m, n| m.run(n).steps, chunk, second_at, &flip_second, max_steps,
        );
        prop_assert_eq!((want_outcome, want.steps), got, "interp chunks");
        assert_same_state("interp chunks", &chunked, &interp);

        let blocks_cache = cache();
        let mut blocks = fresh();
        let mut stats = BlockStats::default();
        let got = run_chunked_with_flip(
            &mut blocks,
            &mut |m, n| m.run_blocks(&blocks_cache, n, &mut stats).steps,
            chunk,
            second_at,
            &flip_second,
            max_steps,
        );
        prop_assert_eq!((want_outcome, want.steps), got, "blocks");
        assert_same_state("blocks", &blocks, &interp);
        prop_assert_eq!(stats.total(), want.steps);

        for opt in [OptLevel::None, OptLevel::Full] {
            for hot_threshold in [0u32, 1, 8] {
                let uops_cache = cache();
                let config = UopConfig { hot_threshold, opt };
                let mut uops = fresh();
                let mut stats = BlockStats::default();
                let got = run_chunked_with_flip(
                    &mut uops,
                    &mut |m, n| m.run_uops(&uops_cache, config, n, &mut stats).steps,
                    chunk,
                    second_at,
                    &flip_second,
                    max_steps,
                );
                let label = format!("uops threshold {hot_threshold} opt {opt}");
                prop_assert_eq!((want_outcome, want.steps), got, "{}", label);
                assert_same_state(&label, &uops, &interp);
                prop_assert_eq!(stats.total(), want.steps);
            }
        }
    }

    /// Block-cached execution is bit-identical to the interpreter over
    /// random looped programs, for every fence placement: the same
    /// outcome after the same number of steps, with the same registers,
    /// flags, program counter, and output — even when the run is driven
    /// in chunks whose boundaries land mid-block.
    #[test]
    fn block_cached_execution_matches_the_interpreter(
        lines in proptest::collection::vec(safe_line(), 0..24),
        iters in 1u64..6,
        chunk in 1u64..97,
    ) {
        let exe = assemble_and_link(&looped_program(&lines, iters)).expect("program builds");
        let text = exe.text_range();
        // Every text offset as a candidate leader: undecodable or
        // mid-instruction candidates are dropped by the builder, so this
        // maximizes block-entry coverage without knowing the CFG.
        let cache = BlockCache::build(&exe, text.start..text.end).expect("text decodes");
        let max_steps = 50_000u64;

        let mut interp = Machine::new(&exe, &[]);
        let interp_result = interp.run(max_steps);

        let mut blocks = Machine::new(&exe, &[]);
        let (outcome, steps) = run_blocks_chunked(&mut blocks, &cache, chunk, max_steps);

        prop_assert_eq!(interp_result.outcome, outcome);
        prop_assert_eq!(interp_result.steps, steps);
        prop_assert_eq!(interp.pc(), blocks.pc());
        prop_assert_eq!(interp.flags(), blocks.flags());
        for i in 0..16u8 {
            let reg = rr_isa::Reg::from_index(i);
            prop_assert_eq!(interp.reg(reg), blocks.reg(reg), "r{}", i);
        }
        prop_assert_eq!(interp.take_output(), blocks.take_output());
    }

    /// Compiled uop execution is bit-identical to the interpreter over
    /// random looped programs, for every fence placement, every tiering
    /// threshold — eager compilation (0), promote-on-reentry (1), and a
    /// threshold the short run may never cross (8, leaving some or all
    /// blocks on the decoded tier) — and both optimization levels (the
    /// straight lowering and the `rr-ir`-optimized trace). Full
    /// architectural state is compared at the end of every chunked run:
    /// outcome, step count, pc, **NZCV flags** (the lazy-materialization
    /// and dead-flag-elimination contract), all sixteen registers, and
    /// output.
    #[test]
    fn uop_execution_matches_the_interpreter_across_thresholds(
        lines in proptest::collection::vec(safe_line(), 0..24),
        iters in 1u64..6,
        chunk in 1u64..97,
    ) {
        let exe = assemble_and_link(&looped_program(&lines, iters)).expect("program builds");
        let text = exe.text_range();
        let max_steps = 50_000u64;

        let mut interp = Machine::new(&exe, &[]);
        let interp_result = interp.run(max_steps);
        let interp_output = interp.take_output();

        for opt in [OptLevel::None, OptLevel::Full] {
            for hot_threshold in [0u32, 1, 8] {
                // A fresh cache per configuration: heat accumulated (and
                // bodies compiled) under one configuration must not leak
                // into the next.
                let cache = BlockCache::build(&exe, text.start..text.end).expect("text decodes");
                let config = UopConfig { hot_threshold, opt };
                let mut uops = Machine::new(&exe, &[]);
                let (outcome, steps) =
                    run_uops_chunked(&mut uops, &cache, config, chunk, max_steps);

                let ctx = |what: &str| format!("{what} threshold {hot_threshold} opt {opt}");
                prop_assert_eq!(interp_result.outcome, outcome, "{}", ctx("outcome"));
                prop_assert_eq!(interp_result.steps, steps, "{}", ctx("steps"));
                prop_assert_eq!(interp.pc(), uops.pc(), "{}", ctx("pc"));
                prop_assert_eq!(interp.flags(), uops.flags(), "{}", ctx("flags"));
                for i in 0..16u8 {
                    let reg = rr_isa::Reg::from_index(i);
                    prop_assert_eq!(interp.reg(reg), uops.reg(reg), "{}", ctx("reg"));
                }
                prop_assert_eq!(&interp_output, &uops.take_output(), "{}", ctx("output"));
            }
        }
    }

    /// Flag state after arithmetic matches the ISA-level flag model.
    #[test]
    fn machine_flags_match_isa_model(a in any::<i64>(), b in any::<i64>()) {
        let src = format!(
            "    .global _start\n_start:\n    mov r1, {a}\n    cmp r1, {b}\n    mov r1, 0\n    svc 0\n"
        );
        // cmp with 64-bit immediates won't assemble if b overflows i32;
        // clamp into range instead of discarding.
        let b32 = (b as i32) as i64;
        let src = src.replace(&format!("cmp r1, {b}"), &format!("cmp r1, {b32}"));
        let exe = assemble_and_link(&src).expect("program builds");
        let mut m = Machine::new(&exe, &[]);
        // Execute mov + cmp only.
        m.step().expect("mov");
        m.step().expect("cmp");
        let expected = rr_isa::Flags::from_sub(a as u64, b32 as u64);
        prop_assert_eq!(m.flags(), expected);
    }
}
