//! The micro-op execution tier: hot superblocks compiled once into
//! pre-lowered uop traces, executed with lazy NZCV materialization.
//!
//! The blocks tier ([`Machine::run_blocks`]) removed fetch/decode from
//! the hot path, but every executed instruction still pays full operand
//! extraction, the interpreter's opcode `match`, and an eager flags
//! recomputation. This module removes those too, in the only way a
//! `#![forbid(unsafe_code)]` workspace can "compile" code — by lowering
//! each decoded superblock **once** into a flat [`Uop`] trace:
//!
//! * operands, immediates, and shift amounts are extracted at compile
//!   time (immediates pre-sign-extended to `u64`, shift counts
//!   pre-masked, zero-count shifts lowered to `Nop`);
//! * memory-op address expressions are pre-split into `base + disp`
//!   with the displacement already extended;
//! * intra-block control flow is pre-resolved to absolute targets, and
//!   the dominant `cmp`/`test` + `j<cc>` idiom is **fused** into one
//!   micro-op that branches straight off the comparison operands;
//! * flag-setting ops record a deferred [`Pending`] tuple instead of
//!   computing NZCV; the flags materialize only when a consumer
//!   (conditional instruction or block exit) reads them, so traces,
//!   snapshots, and injections always observe architecturally exact
//!   state — laziness never escapes a block body.
//!
//! Tiering is driven by per-block execution counts: a block runs
//! decoded ([`Machine::run_decoded_body`]) until it crosses
//! [`UopConfig::hot_threshold`], then compiles once (shared via
//! `OnceLock` across threads) and stays compiled. Compiled bodies live
//! alongside the decoded ones in [`BlockCache`], inheriting the blocks
//! tier's safety rails verbatim: per-instruction pc-expectation checks,
//! exec-dirty ranges sending faulted code to the per-run overlay of
//! blocks decoded from current bytes (which run decoded, never
//! compiled),
//! mid-block fence tails, and cache invalidation dropping compiled
//! bodies together with decoded ones.
//!
//! ## The optimization stage
//!
//! Compilation runs an optional (default-on) optimization stage: the
//! superblock is lowered to `rr-ir` SSA through the bridge
//! ([`lower_block_to_ir`]), the block pass pipeline — constant folding,
//! dead-code elimination, redundant-load/store-to-load forwarding,
//! dead-flag elimination, each verified by the IR verifier — runs over
//! it, and the optimized function is distilled back into a second,
//! cheaper uop trace through the `rr-lower` slot-plan backend (the
//! `uopopt` module). The
//! optimized body is slot-exact — same length, same per-slot pc/step
//! accounting, same register/memory state at every boundary — and only
//! its *interior* lazy-flag bookkeeping may lag, so it runs only when a
//! whole pass over the body fits under the step fence; every fenced or
//! mid-block entry takes the exact body. Debug builds additionally
//! differentially test each optimized lowering against its unoptimized
//! form through the `rr-ir` interpreter at compile time.
//!
//! The result is bit-identical to the interpreter — pinned by the
//! equivalence tests here, the emu proptests, and the engine/fault
//! equivalence suites upstream.

use crate::blockexec::{BlockCache, BlockStats, DecodedBlock, DirtyOverlay};
use crate::machine::{Machine, RunResult};
use crate::outcome::{CpuFault, RunOutcome};
use crate::uopopt::{self, OptStats};
use rr_isa::{AluOp, Cond, Flags, Instr, Reg, ShiftOp};
use std::sync::atomic::Ordering;

/// How hard the uop compiler works on a hot superblock.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OptLevel {
    /// Straight lowering only — every slot keeps its exact uop. The
    /// escape hatch for debugging and A/B measurement.
    None,
    /// Lower through `rr-ir`, run the block pass pipeline, and execute
    /// the optimized trace where the fence rules allow.
    #[default]
    Full,
}

impl std::str::FromStr for OptLevel {
    type Err = String;

    fn from_str(s: &str) -> Result<OptLevel, String> {
        match s {
            "none" => Ok(OptLevel::None),
            "full" => Ok(OptLevel::Full),
            other => Err(format!("unknown opt level {other:?} (expected none|full)")),
        }
    }
}

impl std::fmt::Display for OptLevel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            OptLevel::None => "none",
            OptLevel::Full => "full",
        })
    }
}

/// Tiering knobs for the micro-op execution tier.
///
/// # Example
///
/// ```
/// use rr_emu::{OptLevel, UopConfig};
///
/// assert_eq!(UopConfig::default().hot_threshold, 2);
/// assert_eq!(UopConfig::default().opt, OptLevel::Full);
/// // Compile on first entry, without the IR optimization stage:
/// let eager = UopConfig { hot_threshold: 0, opt: OptLevel::None };
/// assert!(eager.hot_threshold < UopConfig::default().hot_threshold);
/// assert_eq!("none".parse::<OptLevel>(), Ok(OptLevel::None));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UopConfig {
    /// How many times a block executes decoded before it is compiled to
    /// micro-ops. `0` compiles eagerly on first entry; one-shot blocks
    /// never pay compile cost under the default. `u32::MAX` never
    /// promotes (the tier degenerates to the blocks tier).
    pub hot_threshold: u32,
    /// Whether compilation runs the `rr-ir` optimization stage. A block
    /// is optimized (or not) once, by the configuration in effect when
    /// it first crosses the hot threshold; at run time an optimized
    /// body is only *used* under [`OptLevel::Full`].
    pub opt: OptLevel,
}

impl Default for UopConfig {
    fn default() -> UopConfig {
        UopConfig { hot_threshold: 2, opt: OptLevel::Full }
    }
}

/// A pre-resolved right-hand operand: register read or immediate,
/// already sign-extended to the machine word.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Operand {
    Reg(Reg),
    Imm(u64),
}

/// One pre-lowered micro-op. Every field an instruction's execution
/// needs is extracted at compile time; the dispatch loop only reads
/// registers, touches memory, and writes the pc.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Uop {
    Nop,
    Halt,
    MovRR {
        rd: Reg,
        rs: Reg,
    },
    MovRI {
        rd: Reg,
        imm: u64,
    },
    Alu {
        op: AluOp,
        rd: Reg,
        rhs: Operand,
    },
    /// Shift with the amount pre-masked to 1–63 (zero-count shifts
    /// lower to [`Uop::Nop`]: they change neither value nor flags).
    Shift {
        op: ShiftOp,
        rd: Reg,
        amt: u32,
    },
    Not {
        rd: Reg,
    },
    Neg {
        rd: Reg,
    },
    Cmp {
        rs1: Reg,
        rhs: Operand,
    },
    CmpM {
        rs1: Reg,
        base: Reg,
        disp: u64,
    },
    Test {
        rs1: Reg,
        rs2: Reg,
    },
    Load {
        rd: Reg,
        base: Reg,
        disp: u64,
    },
    Store {
        base: Reg,
        disp: u64,
        rs: Reg,
    },
    LoadB {
        rd: Reg,
        base: Reg,
        disp: u64,
    },
    StoreB {
        base: Reg,
        disp: u64,
        rs: Reg,
    },
    Lea {
        rd: Reg,
        base: Reg,
        disp: u64,
    },
    Push {
        rs: Reg,
    },
    Pop {
        rd: Reg,
    },
    PushF,
    PopF,
    Jmp {
        target: u64,
    },
    Jcc {
        cc: Cond,
        target: u64,
    },
    /// Fused `cmp` + `j<cc>`: branches straight off the comparison
    /// operands without forming NZCV. Lives at the compare's slot and
    /// consumes two architectural steps; the following slot keeps a
    /// plain [`Uop::Jcc`] so mid-block entry at the branch still works.
    CmpJcc {
        rs1: Reg,
        rhs: Operand,
        cc: Cond,
        target: u64,
        jcc_next: u64,
    },
    /// Fused `test` + `j<cc>`, same shape as [`Uop::CmpJcc`].
    TestJcc {
        rs1: Reg,
        rs2: Reg,
        cc: Cond,
        target: u64,
        jcc_next: u64,
    },
    Call {
        target: u64,
    },
    CallR {
        rs: Reg,
    },
    JmpR {
        rs: Reg,
    },
    Ret,
    SetCc {
        rd: Reg,
        cc: Cond,
    },
    Svc {
        num: u8,
    },
    /// ALU op whose flag results are provably dead (dead-flag
    /// elimination): skips the deferred-flags bookkeeping entirely.
    /// Never `Udiv` — a division's flag write survives as the crash
    /// barrier keeps it observable.
    AluNF {
        op: AluOp,
        rd: Reg,
        rhs: Operand,
    },
    /// [`Uop::Shift`] with provably dead flags.
    ShiftNF {
        op: ShiftOp,
        rd: Reg,
        amt: u32,
    },
    /// Load from a constant-folded absolute address.
    LoadA {
        rd: Reg,
        addr: u64,
    },
    /// Store to a constant-folded absolute address.
    StoreA {
        addr: u64,
        rs: Reg,
    },
}

/// One compiled slot: the instruction's address, its fallthrough
/// successor, and the pre-lowered micro-op.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct UopEntry {
    pub(crate) pc: u64,
    pub(crate) next: u64,
    pub(crate) op: Uop,
}

/// A superblock's compiled micro-op body, parallel to the decoded one.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct CompiledBlock {
    /// The exact lowering: one slot per instruction, bit-identical
    /// semantics at every step. Always present; mid-block entries and
    /// fence-constrained runs execute this body.
    pub(crate) entries: Vec<UopEntry>,
    /// The optimized lowering (same slot structure, cheaper uops), when
    /// the block was compiled under [`OptLevel::Full`] and the `rr-ir`
    /// pipeline improved it. Only its interior flag bookkeeping may lag
    /// the architectural state, so it runs only full-body, under the
    /// fence headroom check.
    pub(crate) opt: Option<Vec<UopEntry>>,
    /// What the optimization stage removed (for telemetry).
    pub(crate) opt_stats: OptStats,
}

/// The deferred flag-setting operation of the uop tier: the
/// `(lastop, operands, result)` tuple NZCV can be recomputed from.
/// Recorded by flag-setting micro-ops, materialized only when a
/// consumer or a block exit reads the flags.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Pending {
    /// The machine's flags are current; nothing is deferred.
    Clean,
    Add {
        a: u64,
        b: u64,
    },
    Sub {
        a: u64,
        b: u64,
    },
    Logic {
        r: u64,
    },
    Mul {
        r: u64,
        overflow: bool,
    },
    Shift {
        r: u64,
        carry: bool,
    },
}

impl Pending {
    /// The deferred flags, clearing the pending state — `None` when the
    /// machine's flags are already current.
    fn take(&mut self) -> Option<Flags> {
        let flags = match *self {
            Pending::Clean => return None,
            Pending::Add { a, b } => Flags::from_add(a, b),
            Pending::Sub { a, b } => Flags::from_sub(a, b),
            Pending::Logic { r } => Flags::from_logic(r),
            Pending::Mul { r, overflow } => {
                let mut f = Flags::from_logic(r);
                f.c = overflow;
                f.v = overflow;
                f
            }
            Pending::Shift { r, carry } => {
                let mut f = Flags::from_logic(r);
                f.c = carry;
                f
            }
        };
        *self = Pending::Clean;
        Some(flags)
    }
}

/// Writes any deferred flags into the machine (a consumer is about to
/// read them, or a block is exiting to an observable point).
fn materialize(pending: &mut Pending, machine: &mut Machine, stats: &mut BlockStats) {
    if let Some(flags) = pending.take() {
        machine.set_flags(flags);
        stats.flag_materializations += 1;
    }
}

/// `cc.eval(Flags::from_sub(a, b))` computed directly from the
/// comparison operands, without forming the flag tuple.
fn cond_of_sub(cc: Cond, a: u64, b: u64) -> bool {
    match cc {
        Cond::Eq => a == b,
        Cond::Ne => a != b,
        Cond::Lt => (a as i64) < (b as i64),
        Cond::Le => (a as i64) <= (b as i64),
        Cond::Gt => (a as i64) > (b as i64),
        Cond::Ge => (a as i64) >= (b as i64),
        Cond::B => a < b,
        Cond::Be => a <= b,
        Cond::A => a > b,
        Cond::Ae => a >= b,
    }
}

/// `cc.eval(Flags::from_logic(r))` computed directly from the result
/// (`c` and `v` are clear after logic ops).
fn cond_of_logic(cc: Cond, r: u64) -> bool {
    let z = r == 0;
    let n = (r as i64) < 0;
    match cc {
        Cond::Eq => z,
        Cond::Ne => !z,
        Cond::Lt => n,
        Cond::Le => z || n,
        Cond::Gt => !z && !n,
        Cond::Ge => !n,
        Cond::B => false,
        Cond::Be => z,
        Cond::A => !z,
        Cond::Ae => true,
    }
}

/// Lowers a decoded superblock into its micro-op trace. Pure: the same
/// block always compiles to the same body.
pub(crate) fn compile_block(block: &DecodedBlock) -> CompiledBlock {
    let mut entries = Vec::with_capacity(block.body.len());
    for (i, (&pc, &(insn, len))) in block.pcs.iter().zip(&block.body).enumerate() {
        let next = pc.wrapping_add(u64::from(len));
        let op = fuse(insn, next, block, i).unwrap_or_else(|| lower(insn, next));
        entries.push(UopEntry { pc, next, op });
    }
    CompiledBlock { entries, opt: None, opt_stats: OptStats::default() }
}

/// Fuses a flag-setting compare/test with an immediately following
/// conditional branch. The fused op replaces the compare's slot; the
/// branch keeps its own plain slot for mid-block entry.
fn fuse(insn: Instr, next: u64, block: &DecodedBlock, i: usize) -> Option<Uop> {
    let (follower, jcc_len) = *block.body.get(i + 1)?;
    let Instr::Jcc { cc, rel } = follower else { return None };
    debug_assert_eq!(block.pcs[i + 1], next, "blocks decode consecutively");
    let jcc_next = next.wrapping_add(u64::from(jcc_len));
    let target = jcc_next.wrapping_add(rel as i64 as u64);
    match insn {
        Instr::CmpRR { rs1, rs2 } => {
            Some(Uop::CmpJcc { rs1, rhs: Operand::Reg(rs2), cc, target, jcc_next })
        }
        Instr::CmpRI { rs1, imm } => {
            Some(Uop::CmpJcc { rs1, rhs: Operand::Imm(imm as i64 as u64), cc, target, jcc_next })
        }
        Instr::TestRR { rs1, rs2 } => Some(Uop::TestJcc { rs1, rs2, cc, target, jcc_next }),
        // CmpRM is deliberately not fused: its load can fault, and the
        // fault must be observed with the compare's pc semantics.
        _ => None,
    }
}

/// Lowers one instruction to its micro-op (no fusion), with `next` the
/// fallthrough address.
fn lower(insn: Instr, next: u64) -> Uop {
    let ext = |disp: i32| disp as i64 as u64;
    let rel_target = |rel: i32| next.wrapping_add(rel as i64 as u64);
    match insn {
        Instr::Nop => Uop::Nop,
        Instr::Halt => Uop::Halt,
        Instr::MovRR { rd, rs } => Uop::MovRR { rd, rs },
        Instr::MovRI { rd, imm } => Uop::MovRI { rd, imm },
        Instr::AluRR { op, rd, rs } => Uop::Alu { op, rd, rhs: Operand::Reg(rs) },
        Instr::AluRI { op, rd, imm } => Uop::Alu { op, rd, rhs: Operand::Imm(imm as i64 as u64) },
        Instr::ShiftRI { op, rd, amt } => match u32::from(amt & 63) {
            0 => Uop::Nop, // zero-count shifts change neither value nor flags
            amt => Uop::Shift { op, rd, amt },
        },
        Instr::Not { rd } => Uop::Not { rd },
        Instr::Neg { rd } => Uop::Neg { rd },
        Instr::CmpRR { rs1, rs2 } => Uop::Cmp { rs1, rhs: Operand::Reg(rs2) },
        Instr::CmpRI { rs1, imm } => Uop::Cmp { rs1, rhs: Operand::Imm(imm as i64 as u64) },
        Instr::CmpRM { rs1, base, disp } => Uop::CmpM { rs1, base, disp: ext(disp) },
        Instr::TestRR { rs1, rs2 } => Uop::Test { rs1, rs2 },
        Instr::Load { rd, base, disp } => Uop::Load { rd, base, disp: ext(disp) },
        Instr::Store { base, disp, rs } => Uop::Store { base, disp: ext(disp), rs },
        Instr::LoadB { rd, base, disp } => Uop::LoadB { rd, base, disp: ext(disp) },
        Instr::StoreB { base, disp, rs } => Uop::StoreB { base, disp: ext(disp), rs },
        Instr::Lea { rd, base, disp } => Uop::Lea { rd, base, disp: ext(disp) },
        Instr::Push { rs } => Uop::Push { rs },
        Instr::Pop { rd } => Uop::Pop { rd },
        Instr::PushF => Uop::PushF,
        Instr::PopF => Uop::PopF,
        Instr::Jmp { rel } => Uop::Jmp { target: rel_target(rel) },
        Instr::Jcc { cc, rel } => Uop::Jcc { cc, target: rel_target(rel) },
        Instr::Call { rel } => Uop::Call { target: rel_target(rel) },
        Instr::CallR { rs } => Uop::CallR { rs },
        Instr::JmpR { rs } => Uop::JmpR { rs },
        Instr::Ret => Uop::Ret,
        Instr::SetCc { rd, cc } => Uop::SetCc { rd, cc },
        Instr::Svc { num } => Uop::Svc { num },
    }
}

impl DecodedBlock {
    /// The block's compiled body, compiling it when this execution
    /// crosses the hot threshold. Returns `None` while the block is
    /// still cold (callers run the decoded body instead). Each call
    /// counts one execution of the block.
    ///
    /// `store_to_load` tells the optimizer whether forwarding a stored
    /// value into a later load of the same address is a permitted
    /// access pattern (see [`crate::Memory::writable_implies_readable`]).
    /// The configuration in effect on the *first* promotion decides the
    /// shared body — including whether an optimized variant exists.
    pub(crate) fn compiled(
        &self,
        config: UopConfig,
        store_to_load: bool,
        stats: &mut BlockStats,
    ) -> Option<&CompiledBlock> {
        if let Some(body) = self.compiled.get() {
            return Some(body);
        }
        let heat = self.heat.fetch_add(1, Ordering::Relaxed).saturating_add(1);
        if heat <= config.hot_threshold {
            return None;
        }
        if heat == config.hot_threshold.saturating_add(1) {
            stats.tier_promotions += 1;
        }
        let mut fresh = false;
        let body = self.compiled.get_or_init(|| {
            fresh = true;
            let mut body = compile_block(self);
            if config.opt == OptLevel::Full {
                if let Some((opt, opt_stats)) = uopopt::optimize(self, &body.entries, store_to_load)
                {
                    body.opt = Some(opt);
                    body.opt_stats = opt_stats;
                }
            }
            body
        });
        if fresh {
            stats.blocks_compiled += 1;
            if body.opt.is_some() {
                stats.blocks_optimized += 1;
                stats.uops_eliminated += body.opt_stats.uops_eliminated;
                stats.loads_forwarded += body.opt_stats.loads_forwarded;
                stats.flag_defs_killed += body.opt_stats.flag_defs_killed;
            }
        }
        Some(body)
    }
}

impl Machine {
    /// Runs like [`Machine::run`] but executes hot superblocks as
    /// compiled micro-op traces, warm blocks as pre-decoded bodies,
    /// modified code as pre-decoded bodies from a per-run overlay (never
    /// compiled; see [`Machine::run_blocks`]), and everything else
    /// through the interpreter. Bit-identical to
    /// [`Machine::run`]: same outcome, same step count, same final
    /// state — including NZCV at every exit.
    ///
    /// # Example
    ///
    /// ```
    /// use rr_asm::assemble_and_link;
    /// use rr_emu::{BlockCache, BlockStats, Machine, RunOutcome, UopConfig};
    ///
    /// let exe = assemble_and_link(
    ///     "    .global _start\n_start:\n    mov r1, 41\n    add r1, 1\n    svc 0\n",
    /// )?;
    /// let cache = BlockCache::build(&exe, [exe.entry]).expect("text decodes");
    /// let mut m = Machine::new(&exe, &[]);
    /// let mut stats = BlockStats::default();
    /// let config = UopConfig { hot_threshold: 0, ..UopConfig::default() };
    /// let result = m.run_uops(&cache, config, 1_000, &mut stats);
    /// assert_eq!(result.outcome, RunOutcome::Exited { code: 42 });
    /// assert_eq!(stats.uop_steps, 3);
    /// assert_eq!(stats.blocks_compiled, 1);
    /// # Ok::<(), rr_asm::BuildError>(())
    /// ```
    pub fn run_uops(
        &mut self,
        cache: &BlockCache,
        config: UopConfig,
        max_steps: u64,
        stats: &mut BlockStats,
    ) -> RunResult {
        self.run_uops_inner(cache, config, max_steps, stats, None)
    }

    /// [`Machine::run_uops`] recording the PC of every executed
    /// instruction into `trace` (fused micro-ops record both halves).
    pub fn run_uops_traced(
        &mut self,
        cache: &BlockCache,
        config: UopConfig,
        max_steps: u64,
        stats: &mut BlockStats,
        trace: &mut Vec<u64>,
    ) -> RunResult {
        self.run_uops_inner(cache, config, max_steps, stats, Some(trace))
    }

    fn run_uops_inner(
        &mut self,
        cache: &BlockCache,
        config: UopConfig,
        max_steps: u64,
        stats: &mut BlockStats,
        mut trace: Option<&mut Vec<u64>>,
    ) -> RunResult {
        let mut steps = 0u64;
        let mut overlay = DirtyOverlay::default();
        let store_to_load = self.memory().writable_implies_readable();
        while steps < max_steps {
            if let Some(outcome) = self.stopped() {
                return RunResult { outcome, steps };
            }
            match cache.lookup(self.pc()) {
                Some((block, entry))
                    if !self.memory().exec_dirty_intersects(block.start, block.end) =>
                {
                    match block.compiled(config, store_to_load, stats) {
                        Some(body) => {
                            // The optimized body is only interior-exact
                            // for flags, so it runs only when a whole
                            // pass fits under the step fence and entry
                            // is at the leader; otherwise the exact
                            // body takes over.
                            let opt = match (&body.opt, config.opt) {
                                (Some(opt), OptLevel::Full)
                                    if entry == 0
                                        && steps.saturating_add(opt.len() as u64) <= max_steps =>
                                {
                                    Some(opt.as_slice())
                                }
                                _ => None,
                            };
                            match opt {
                                Some(entries) => self.run_uop_body(
                                    block, entries, 0, true, max_steps, &mut steps, stats,
                                    &mut trace,
                                ),
                                None => self.run_uop_body(
                                    block,
                                    &body.entries,
                                    entry,
                                    false,
                                    max_steps,
                                    &mut steps,
                                    stats,
                                    &mut trace,
                                ),
                            }
                        }
                        None => self.run_decoded_body(
                            block, entry, max_steps, &mut steps, stats, &mut trace,
                        ),
                    }
                }
                hit => self.run_uncached(
                    hit.is_some(),
                    &mut overlay,
                    max_steps,
                    &mut steps,
                    stats,
                    &mut trace,
                ),
            }
        }
        match self.stopped() {
            Some(outcome) => RunResult { outcome, steps },
            None => RunResult { outcome: RunOutcome::TimedOut, steps },
        }
    }

    /// The uop tier's dispatch loop: executes one compiled body (the
    /// exact trace, or under `optimized` the pass-pipeline one) from
    /// slot `entry` until a fault, stop, fence, exec-dirty write into
    /// the block, or control transfer out of it. Deferred flags never
    /// escape — every exit path materializes them, so the machine state
    /// is architecturally exact whenever this returns. (In an optimized
    /// body every reachable exit sits at a flag barrier or block end,
    /// where dead-flag elimination provably kept the latest flag
    /// definition, so the materialized state matches the exact trace.)
    #[allow(clippy::too_many_arguments)]
    fn run_uop_body(
        &mut self,
        block: &DecodedBlock,
        entries: &[UopEntry],
        entry: usize,
        optimized: bool,
        max_steps: u64,
        steps: &mut u64,
        stats: &mut BlockStats,
        trace: &mut Option<&mut Vec<u64>>,
    ) {
        let mut index = entry;
        let mut epoch = self.memory().exec_dirty_epoch();
        let mut pending = Pending::Clean;
        'body: loop {
            let e = &entries[index];
            if let Some(trace) = trace.as_deref_mut() {
                trace.push(e.pc);
            }
            *steps += 1;
            stats.uop_steps += 1;
            let mut next_index = index + 1;
            // Contract per op, mirroring `exec_decoded`: the pc is set
            // to the successor *before* the semantics run, so a fault
            // records `Crashed { pc: next }` — except `halt`, which
            // records its own site.
            match e.op {
                Uop::Nop => self.set_pc(e.next),
                Uop::Halt => {
                    self.stop_crashed(CpuFault::Halted);
                    break 'body;
                }
                Uop::MovRR { rd, rs } => {
                    self.set_pc(e.next);
                    let value = self.reg(rs);
                    self.set_reg(rd, value);
                }
                Uop::MovRI { rd, imm } => {
                    self.set_pc(e.next);
                    self.set_reg(rd, imm);
                }
                Uop::Alu { op, rd, rhs } => {
                    self.set_pc(e.next);
                    let a = self.reg(rd);
                    let b = self.operand(rhs);
                    let res = match op {
                        AluOp::Add => {
                            pending = Pending::Add { a, b };
                            a.wrapping_add(b)
                        }
                        AluOp::Sub => {
                            pending = Pending::Sub { a, b };
                            a.wrapping_sub(b)
                        }
                        AluOp::And => {
                            let r = a & b;
                            pending = Pending::Logic { r };
                            r
                        }
                        AluOp::Or => {
                            let r = a | b;
                            pending = Pending::Logic { r };
                            r
                        }
                        AluOp::Xor => {
                            let r = a ^ b;
                            pending = Pending::Logic { r };
                            r
                        }
                        AluOp::Mul => {
                            let (r, overflow) = a.overflowing_mul(b);
                            pending = Pending::Mul { r, overflow };
                            r
                        }
                        AluOp::Udiv => {
                            if b == 0 {
                                // The failed division writes neither rd
                                // nor flags.
                                self.stop_crashed(CpuFault::DivideByZero);
                                break 'body;
                            }
                            let r = a / b;
                            pending = Pending::Logic { r };
                            r
                        }
                    };
                    self.set_reg(rd, res);
                }
                Uop::Shift { op, rd, amt } => {
                    self.set_pc(e.next);
                    let value = self.reg(rd);
                    let (res, carry) = match op {
                        ShiftOp::Shl => (value << amt, value >> (64 - amt) & 1 == 1),
                        ShiftOp::Shr => (value >> amt, value >> (amt - 1) & 1 == 1),
                        ShiftOp::Sar => {
                            (((value as i64) >> amt) as u64, (value as i64) >> (amt - 1) & 1 == 1)
                        }
                    };
                    self.set_reg(rd, res);
                    pending = Pending::Shift { r: res, carry };
                }
                Uop::Not { rd } => {
                    self.set_pc(e.next);
                    let res = !self.reg(rd);
                    self.set_reg(rd, res);
                    pending = Pending::Logic { r: res };
                }
                Uop::Neg { rd } => {
                    self.set_pc(e.next);
                    let value = self.reg(rd);
                    self.set_reg(rd, value.wrapping_neg());
                    pending = Pending::Sub { a: 0, b: value };
                }
                Uop::Cmp { rs1, rhs } => {
                    self.set_pc(e.next);
                    pending = Pending::Sub { a: self.reg(rs1), b: self.operand(rhs) };
                }
                Uop::CmpM { rs1, base, disp } => {
                    self.set_pc(e.next);
                    let addr = self.reg(base).wrapping_add(disp);
                    match self.memory().read_u64(addr) {
                        Ok(value) => pending = Pending::Sub { a: self.reg(rs1), b: value },
                        Err(fault) => {
                            self.stop_crashed(Machine::mem_fault(fault));
                            break 'body;
                        }
                    }
                }
                Uop::Test { rs1, rs2 } => {
                    self.set_pc(e.next);
                    pending = Pending::Logic { r: self.reg(rs1) & self.reg(rs2) };
                }
                Uop::Load { rd, base, disp } => {
                    self.set_pc(e.next);
                    let addr = self.reg(base).wrapping_add(disp);
                    match self.memory().read_u64(addr) {
                        Ok(value) => self.set_reg(rd, value),
                        Err(fault) => {
                            self.stop_crashed(Machine::mem_fault(fault));
                            break 'body;
                        }
                    }
                }
                Uop::Store { base, disp, rs } => {
                    self.set_pc(e.next);
                    let addr = self.reg(base).wrapping_add(disp);
                    let value = self.reg(rs);
                    if let Err(fault) = self.memory_mut().write_u64(addr, value) {
                        self.stop_crashed(Machine::mem_fault(fault));
                        break 'body;
                    }
                }
                Uop::LoadB { rd, base, disp } => {
                    self.set_pc(e.next);
                    let addr = self.reg(base).wrapping_add(disp);
                    match self.memory().read_u8(addr) {
                        Ok(value) => self.set_reg(rd, u64::from(value)),
                        Err(fault) => {
                            self.stop_crashed(Machine::mem_fault(fault));
                            break 'body;
                        }
                    }
                }
                Uop::StoreB { base, disp, rs } => {
                    self.set_pc(e.next);
                    let addr = self.reg(base).wrapping_add(disp);
                    let value = self.reg(rs) as u8;
                    if let Err(fault) = self.memory_mut().write_u8(addr, value) {
                        self.stop_crashed(Machine::mem_fault(fault));
                        break 'body;
                    }
                }
                Uop::Lea { rd, base, disp } => {
                    self.set_pc(e.next);
                    let addr = self.reg(base).wrapping_add(disp);
                    self.set_reg(rd, addr);
                }
                Uop::Push { rs } => {
                    self.set_pc(e.next);
                    if let Err(fault) = self.push(self.reg(rs)) {
                        self.stop_crashed(fault);
                        break 'body;
                    }
                }
                Uop::Pop { rd } => {
                    self.set_pc(e.next);
                    match self.pop() {
                        Ok(value) => self.set_reg(rd, value),
                        Err(fault) => {
                            self.stop_crashed(fault);
                            break 'body;
                        }
                    }
                }
                Uop::PushF => {
                    self.set_pc(e.next);
                    materialize(&mut pending, self, stats);
                    if let Err(fault) = self.push(self.flags().to_bits()) {
                        self.stop_crashed(fault);
                        break 'body;
                    }
                }
                Uop::PopF => {
                    self.set_pc(e.next);
                    match self.pop() {
                        Ok(bits) => {
                            // The architectural restore replaces any
                            // deferred flags outright.
                            pending = Pending::Clean;
                            self.set_flags(Flags::from_bits(bits));
                        }
                        // A failed popf leaves the flags untouched: the
                        // older pending state materializes on exit.
                        Err(fault) => {
                            self.stop_crashed(fault);
                            break 'body;
                        }
                    }
                }
                Uop::Jmp { target } => self.set_pc(target),
                Uop::Jcc { cc, target } => {
                    self.set_pc(e.next);
                    materialize(&mut pending, self, stats);
                    if cc.eval(self.flags()) {
                        self.set_pc(target);
                    }
                }
                Uop::CmpJcc { rs1, rhs, cc, target, jcc_next } => {
                    // First half: the compare. Its successor is the
                    // branch's own slot.
                    self.set_pc(e.next);
                    let a = self.reg(rs1);
                    let b = self.operand(rhs);
                    pending = Pending::Sub { a, b };
                    if *steps >= max_steps {
                        break 'body; // fence between the fused halves
                    }
                    if let Some(trace) = trace.as_deref_mut() {
                        trace.push(e.next);
                    }
                    *steps += 1;
                    stats.uop_steps += 1;
                    // Second half: branch straight off the operands —
                    // the NZCV tuple is never formed.
                    self.set_pc(if cond_of_sub(cc, a, b) { target } else { jcc_next });
                    next_index = index + 2;
                }
                Uop::TestJcc { rs1, rs2, cc, target, jcc_next } => {
                    self.set_pc(e.next);
                    let r = self.reg(rs1) & self.reg(rs2);
                    pending = Pending::Logic { r };
                    if *steps >= max_steps {
                        break 'body;
                    }
                    if let Some(trace) = trace.as_deref_mut() {
                        trace.push(e.next);
                    }
                    *steps += 1;
                    stats.uop_steps += 1;
                    self.set_pc(if cond_of_logic(cc, r) { target } else { jcc_next });
                    next_index = index + 2;
                }
                Uop::Call { target } => {
                    self.set_pc(e.next);
                    if let Err(fault) = self.push(e.next) {
                        self.stop_crashed(fault);
                        break 'body;
                    }
                    self.set_pc(target);
                }
                Uop::CallR { rs } => {
                    self.set_pc(e.next);
                    let target = self.reg(rs);
                    if let Err(fault) = self.push(e.next) {
                        self.stop_crashed(fault);
                        break 'body;
                    }
                    self.set_pc(target);
                }
                Uop::JmpR { rs } => {
                    let target = self.reg(rs);
                    self.set_pc(target);
                }
                Uop::Ret => {
                    self.set_pc(e.next);
                    match self.pop() {
                        Ok(target) => self.set_pc(target),
                        Err(fault) => {
                            self.stop_crashed(fault);
                            break 'body;
                        }
                    }
                }
                Uop::SetCc { rd, cc } => {
                    self.set_pc(e.next);
                    materialize(&mut pending, self, stats);
                    let value = u64::from(cc.eval(self.flags()));
                    self.set_reg(rd, value);
                }
                Uop::Svc { num } => {
                    self.set_pc(e.next);
                    if let Err(fault) = self.service(num) {
                        self.stop_crashed(fault);
                        break 'body;
                    }
                }
                Uop::AluNF { op, rd, rhs } => {
                    self.set_pc(e.next);
                    let a = self.reg(rd);
                    let b = self.operand(rhs);
                    let res = match op {
                        AluOp::Add => a.wrapping_add(b),
                        AluOp::Sub => a.wrapping_sub(b),
                        AluOp::And => a & b,
                        AluOp::Or => a | b,
                        AluOp::Xor => a ^ b,
                        AluOp::Mul => a.wrapping_mul(b),
                        // Unreachable by construction (the optimizer
                        // never drops a division's flags), but a crash
                        // must still be a crash.
                        AluOp::Udiv => {
                            if b == 0 {
                                self.stop_crashed(CpuFault::DivideByZero);
                                break 'body;
                            }
                            a / b
                        }
                    };
                    self.set_reg(rd, res);
                }
                Uop::ShiftNF { op, rd, amt } => {
                    self.set_pc(e.next);
                    let value = self.reg(rd);
                    let res = match op {
                        ShiftOp::Shl => value << amt,
                        ShiftOp::Shr => value >> amt,
                        ShiftOp::Sar => ((value as i64) >> amt) as u64,
                    };
                    self.set_reg(rd, res);
                }
                Uop::LoadA { rd, addr } => {
                    self.set_pc(e.next);
                    match self.memory().read_u64(addr) {
                        Ok(value) => self.set_reg(rd, value),
                        Err(fault) => {
                            self.stop_crashed(Machine::mem_fault(fault));
                            break 'body;
                        }
                    }
                }
                Uop::StoreA { addr, rs } => {
                    self.set_pc(e.next);
                    let value = self.reg(rs);
                    if let Err(fault) = self.memory_mut().write_u64(addr, value) {
                        self.stop_crashed(Machine::mem_fault(fault));
                        break 'body;
                    }
                }
            }
            if self.stopped().is_some() || *steps >= max_steps {
                break;
            }
            let now = self.memory().exec_dirty_epoch();
            if now != epoch {
                // A store landed in executable memory: the compiled
                // body may be stale; re-entry through the outer lookup
                // decides (and runs this block from the overlay if it
                // was hit).
                epoch = now;
                if self.memory().exec_dirty_intersects(block.start, block.end) {
                    break;
                }
            }
            index = next_index;
            if index < entries.len() && self.pc() == entries[index].pc {
                continue;
            }
            if self.pc() == entries[0].pc {
                // Back-edge to this block's own leader (a self-loop):
                // stay in the compiled body instead of paying the cache
                // lookup and tier bookkeeping once per iteration. The
                // per-entry fence, stop, and exec-dirty-epoch checks
                // above are the same rails the outer loop would apply.
                if optimized && steps.saturating_add(entries.len() as u64) > max_steps {
                    // Another full pass no longer fits under the fence;
                    // exit so the outer loop re-enters through the
                    // exact body for the fenced tail.
                    break;
                }
                index = 0;
                continue;
            }
            // Fell off the block or control transferred — resume
            // through the cache lookup.
            break;
        }
        // Every observable point (trace fence, snapshot, injection,
        // block exit of any kind) sees exact architectural state.
        materialize(&mut pending, self, stats);
    }

    fn operand(&self, operand: Operand) -> u64 {
        match operand {
            Operand::Reg(r) => self.reg(r),
            Operand::Imm(v) => v,
        }
    }
}

/// Bridge into the `rr-ir` SSA form: the front end of the uop
/// compiler's optimization stage (and available standalone for
/// inspection tooling).
pub use bridge::lower_block_to_ir;
pub(crate) use bridge::lower_decoded_slotted;

pub(crate) mod bridge {
    use crate::blockexec::{BlockCache, DecodedBlock};
    use rr_ir::{BinOp, BlockId, Cell, Function, Op, Pred, Terminator, ValueId, Width};
    use rr_isa::{AluOp, Cond, Instr, Reg, ShiftOp};

    /// Lowers the decoded superblock containing `pc` into a verified
    /// standalone [`rr_ir::Function`]: straight-line semantics become
    /// cell/memory ops with eager NZCV writes, and a trailing
    /// conditional branch becomes a [`Terminator::CondBr`] whose
    /// condition is recomputed from the flag cells.
    ///
    /// Returns `None` when no block starts at `pc` or the block uses an
    /// instruction outside the bridged subset (`mul`/`udiv` flags,
    /// stack flag transfers, calls, and indirect control flow are left
    /// to the interpreter tiers).
    pub fn lower_block_to_ir(cache: &BlockCache, pc: u64) -> Option<Function> {
        let (block, _) = cache.lookup(pc)?;
        lower_decoded_slotted(block).map(|(f, _)| f)
    }

    /// [`lower_block_to_ir`] plus the slot table the uop backend needs:
    /// `starts[i]` is the arena index instruction `i`'s lowering began
    /// at. Tail-terminator early returns may leave `starts` shorter
    /// than the block body; the emulator keeps unplanned tail slots
    /// exact.
    pub(crate) fn lower_decoded_slotted(block: &DecodedBlock) -> Option<(Function, Vec<u32>)> {
        let mut f = Function::new(format!("block_{:#x}", block.start));
        let mut starts = Vec::with_capacity(block.body.len());
        let entry = f.entry();
        let mut b = Builder { f: &mut f, block: entry };
        let last = block.body.len() - 1;
        for (i, &(insn, _)) in block.body.iter().enumerate() {
            starts.push(b.f.value_count() as u32);
            match insn {
                Instr::Nop => {}
                Instr::Halt => {
                    b.f.set_terminator(entry, Terminator::Abort);
                    return Some((f, starts));
                }
                Instr::MovRR { rd, rs } => {
                    let v = b.read(rs);
                    b.write(rd, v);
                }
                Instr::MovRI { rd, imm } => {
                    let v = b.konst(imm);
                    b.write(rd, v);
                }
                Instr::AluRR { op, rd, rs } => {
                    let rhs = b.read(rs);
                    b.alu(op, rd, rhs)?;
                }
                Instr::AluRI { op, rd, imm } => {
                    let rhs = b.konst(imm as i64 as u64);
                    b.alu(op, rd, rhs)?;
                }
                Instr::ShiftRI { op, rd, amt } => b.shift(op, rd, u32::from(amt & 63)),
                Instr::Not { rd } => {
                    let v = b.read(rd);
                    let res = b.f.append(b.block, Op::Not(v));
                    b.write(rd, res);
                    b.flags_logic(res);
                }
                Instr::Neg { rd } => {
                    let v = b.read(rd);
                    let res = b.f.append(b.block, Op::Neg(v));
                    b.write(rd, res);
                    let zero = b.konst(0);
                    b.flags_sub(zero, v, res);
                }
                Instr::CmpRR { rs1, rs2 } => {
                    let (a, bb) = (b.read(rs1), b.read(rs2));
                    let res = b.bin(BinOp::Sub, a, bb);
                    b.flags_sub(a, bb, res);
                }
                Instr::CmpRI { rs1, imm } => {
                    let a = b.read(rs1);
                    let bb = b.konst(imm as i64 as u64);
                    let res = b.bin(BinOp::Sub, a, bb);
                    b.flags_sub(a, bb, res);
                }
                Instr::CmpRM { rs1, base, disp } => {
                    let addr = b.addr(base, disp);
                    let bb = b.f.append(b.block, Op::Load { addr, width: Width::Q });
                    let a = b.read(rs1);
                    let res = b.bin(BinOp::Sub, a, bb);
                    b.flags_sub(a, bb, res);
                }
                Instr::TestRR { rs1, rs2 } => {
                    let (a, bb) = (b.read(rs1), b.read(rs2));
                    let res = b.bin(BinOp::And, a, bb);
                    b.flags_logic(res);
                }
                Instr::Load { rd, base, disp } => {
                    let addr = b.addr(base, disp);
                    let v = b.f.append(b.block, Op::Load { addr, width: Width::Q });
                    b.write(rd, v);
                }
                Instr::Store { base, disp, rs } => {
                    let addr = b.addr(base, disp);
                    let v = b.read(rs);
                    b.f.append(b.block, Op::Store { addr, value: v, width: Width::Q });
                }
                Instr::LoadB { rd, base, disp } => {
                    let addr = b.addr(base, disp);
                    let v = b.f.append(b.block, Op::Load { addr, width: Width::B });
                    b.write(rd, v);
                }
                Instr::StoreB { base, disp, rs } => {
                    let addr = b.addr(base, disp);
                    let v = b.read(rs);
                    b.f.append(b.block, Op::Store { addr, value: v, width: Width::B });
                }
                Instr::Lea { rd, base, disp } => {
                    let addr = b.addr(base, disp);
                    b.write(rd, addr);
                }
                Instr::Push { rs } => {
                    let v = b.read(rs);
                    b.push(v);
                }
                Instr::Pop { rd } => {
                    let v = b.pop();
                    b.write(rd, v);
                }
                Instr::SetCc { rd, cc } => {
                    let v = b.cond_value(cc);
                    b.write(rd, v);
                }
                Instr::Svc { num } => {
                    b.f.append(b.block, Op::Svc { num });
                }
                Instr::Jmp { .. } if i == last => {
                    b.f.set_terminator(entry, Terminator::Ret);
                    return Some((f, starts));
                }
                Instr::Jcc { cc, .. } if i == last => {
                    let cond = b.cond_value(cc);
                    let taken = f.new_block();
                    let fallthrough = f.new_block();
                    f.set_terminator(
                        entry,
                        Terminator::CondBr { cond, if_true: taken, if_false: fallthrough },
                    );
                    f.set_terminator(taken, Terminator::Ret);
                    f.set_terminator(fallthrough, Terminator::Ret);
                    return Some((f, starts));
                }
                Instr::Ret if i == last => {
                    // The block-level function returns to its driver;
                    // the architectural return address stays on the
                    // machine stack for the caller to consume.
                    let mut b = Builder { f: &mut f, block: entry };
                    let target = b.pop();
                    let _ = target;
                    f.set_terminator(entry, Terminator::Ret);
                    return Some((f, starts));
                }
                // Outside the bridged subset: flag stack transfers,
                // calls, indirect control flow, or a terminator that is
                // somehow not in tail position.
                _ => return None,
            }
            b = Builder { f: &mut f, block: entry };
        }
        f.set_terminator(entry, Terminator::Ret);
        Some((f, starts))
    }

    struct Builder<'a> {
        f: &'a mut Function,
        block: BlockId,
    }

    impl Builder<'_> {
        fn konst(&mut self, v: u64) -> ValueId {
            self.f.append(self.block, Op::Const(v))
        }

        fn read(&mut self, r: Reg) -> ValueId {
            self.f.append(self.block, Op::ReadCell(Cell::reg(r.index())))
        }

        fn write(&mut self, r: Reg, v: ValueId) {
            self.f.append(self.block, Op::WriteCell { cell: Cell::reg(r.index()), value: v });
        }

        fn bin(&mut self, op: BinOp, lhs: ValueId, rhs: ValueId) -> ValueId {
            self.f.append(self.block, Op::BinOp { op, lhs, rhs })
        }

        fn icmp(&mut self, pred: Pred, lhs: ValueId, rhs: ValueId) -> ValueId {
            self.f.append(self.block, Op::ICmp { pred, lhs, rhs })
        }

        fn addr(&mut self, base: Reg, disp: i32) -> ValueId {
            let b = self.read(base);
            let d = self.konst(disp as i64 as u64);
            self.bin(BinOp::Add, b, d)
        }

        fn push(&mut self, v: ValueId) {
            let sp = self.read(Reg::SP);
            let eight = self.konst(8);
            let new_sp = self.bin(BinOp::Sub, sp, eight);
            self.f.append(self.block, Op::Store { addr: new_sp, value: v, width: Width::Q });
            self.f.append(
                self.block,
                Op::WriteCell { cell: Cell::reg(Reg::SP.index()), value: new_sp },
            );
        }

        fn pop(&mut self) -> ValueId {
            let sp = self.read(Reg::SP);
            let v = self.f.append(self.block, Op::Load { addr: sp, width: Width::Q });
            let eight = self.konst(8);
            let new_sp = self.bin(BinOp::Add, sp, eight);
            self.f.append(
                self.block,
                Op::WriteCell { cell: Cell::reg(Reg::SP.index()), value: new_sp },
            );
            v
        }

        fn alu(&mut self, op: AluOp, rd: Reg, rhs: ValueId) -> Option<()> {
            let lhs = self.read(rd);
            match op {
                AluOp::Add => {
                    let res = self.bin(BinOp::Add, lhs, rhs);
                    self.write(rd, res);
                    self.flags_add(lhs, rhs, res);
                }
                AluOp::Sub => {
                    let res = self.bin(BinOp::Sub, lhs, rhs);
                    self.write(rd, res);
                    self.flags_sub(lhs, rhs, res);
                }
                AluOp::And | AluOp::Or | AluOp::Xor => {
                    let bin = match op {
                        AluOp::And => BinOp::And,
                        AluOp::Or => BinOp::Or,
                        _ => BinOp::Xor,
                    };
                    let res = self.bin(bin, lhs, rhs);
                    self.write(rd, res);
                    self.flags_logic(res);
                }
                // Overflow detection for mul and the trapping udiv are
                // outside the bridged subset.
                AluOp::Mul | AluOp::Udiv => return None,
            }
            Some(())
        }

        fn shift(&mut self, op: ShiftOp, rd: Reg, amt: u32) {
            if amt == 0 {
                return; // zero-count shifts change neither value nor flags
            }
            let value = self.read(rd);
            let amount = self.konst(u64::from(amt));
            let bin = match op {
                ShiftOp::Shl => BinOp::Shl,
                ShiftOp::Shr => BinOp::Lshr,
                ShiftOp::Sar => BinOp::Ashr,
            };
            let res = self.bin(bin, value, amount);
            self.write(rd, res);
            // Carry is the last bit shifted out.
            let carry_shift = self.konst(match op {
                ShiftOp::Shl => u64::from(64 - amt),
                ShiftOp::Shr | ShiftOp::Sar => u64::from(amt - 1),
            });
            let carry_bin = if op == ShiftOp::Sar { BinOp::Ashr } else { BinOp::Lshr };
            let shifted = self.bin(carry_bin, value, carry_shift);
            let one = self.konst(1);
            let carry = self.bin(BinOp::And, shifted, one);
            self.flags_zn(res);
            self.write_flag(Cell::C, carry);
            let zero = self.konst(0);
            self.write_flag(Cell::V, zero);
        }

        fn write_flag(&mut self, cell: Cell, v: ValueId) {
            self.f.append(self.block, Op::WriteCell { cell, value: v });
        }

        fn flags_zn(&mut self, res: ValueId) {
            let zero = self.konst(0);
            let z = self.icmp(Pred::Eq, res, zero);
            let n = self.icmp(Pred::Slt, res, zero);
            self.write_flag(Cell::Z, z);
            self.write_flag(Cell::N, n);
        }

        fn flags_logic(&mut self, res: ValueId) {
            self.flags_zn(res);
            let zero = self.konst(0);
            self.write_flag(Cell::C, zero);
            self.write_flag(Cell::V, zero);
        }

        /// NZCV of `a - b = res`: borrow is `a <u b`, signed overflow is
        /// `((a ^ b) & (a ^ res)) >> 63`.
        fn flags_sub(&mut self, a: ValueId, b: ValueId, res: ValueId) {
            self.flags_zn(res);
            let c = self.icmp(Pred::Ult, a, b);
            self.write_flag(Cell::C, c);
            let ab = self.bin(BinOp::Xor, a, b);
            let ar = self.bin(BinOp::Xor, a, res);
            let both = self.bin(BinOp::And, ab, ar);
            let sixty_three = self.konst(63);
            let v = self.bin(BinOp::Lshr, both, sixty_three);
            self.write_flag(Cell::V, v);
        }

        /// NZCV of `a + b = res`: carry is `res <u a`, signed overflow
        /// is `((a ^ res) & (b ^ res)) >> 63`.
        fn flags_add(&mut self, a: ValueId, b: ValueId, res: ValueId) {
            self.flags_zn(res);
            let c = self.icmp(Pred::Ult, res, a);
            self.write_flag(Cell::C, c);
            let ar = self.bin(BinOp::Xor, a, res);
            let br = self.bin(BinOp::Xor, b, res);
            let both = self.bin(BinOp::And, ar, br);
            let sixty_three = self.konst(63);
            let v = self.bin(BinOp::Lshr, both, sixty_three);
            self.write_flag(Cell::V, v);
        }

        /// The condition's 0/1 value recomputed from the flag cells
        /// (each holding 0 or 1).
        fn cond_value(&mut self, cc: Cond) -> ValueId {
            match cc {
                Cond::Eq => self.f.append(self.block, Op::ReadCell(Cell::Z)),
                Cond::Ne => {
                    let z = self.f.append(self.block, Op::ReadCell(Cell::Z));
                    self.not01(z)
                }
                Cond::Lt => {
                    let (n, v) = self.read_nv();
                    self.bin(BinOp::Xor, n, v)
                }
                Cond::Ge => {
                    let lt = self.cond_value(Cond::Lt);
                    self.not01(lt)
                }
                Cond::Le => {
                    let lt = self.cond_value(Cond::Lt);
                    let z = self.f.append(self.block, Op::ReadCell(Cell::Z));
                    self.bin(BinOp::Or, z, lt)
                }
                Cond::Gt => {
                    let le = self.cond_value(Cond::Le);
                    self.not01(le)
                }
                Cond::B => self.f.append(self.block, Op::ReadCell(Cell::C)),
                Cond::Ae => {
                    let c = self.f.append(self.block, Op::ReadCell(Cell::C));
                    self.not01(c)
                }
                Cond::Be => {
                    let c = self.f.append(self.block, Op::ReadCell(Cell::C));
                    let z = self.f.append(self.block, Op::ReadCell(Cell::Z));
                    self.bin(BinOp::Or, c, z)
                }
                Cond::A => {
                    let be = self.cond_value(Cond::Be);
                    self.not01(be)
                }
            }
        }

        fn read_nv(&mut self) -> (ValueId, ValueId) {
            let n = self.f.append(self.block, Op::ReadCell(Cell::N));
            let v = self.f.append(self.block, Op::ReadCell(Cell::V));
            (n, v)
        }

        fn not01(&mut self, v: ValueId) -> ValueId {
            let one = self.konst(1);
            self.bin(BinOp::Xor, v, one)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rr_asm::assemble_and_link;
    use rr_obj::Executable;

    /// A small program with a loop, a call, branches, and output —
    /// exercises the fused cmp+jne idiom every iteration.
    const LOOPY: &str = "    .global _start\n\
         _start:\n\
             mov r2, 5\n\
         .loop:\n\
             mov r1, r2\n\
             call emit\n\
             sub r2, 1\n\
             cmp r2, 0\n\
             jne .loop\n\
             mov r1, 0\n\
             svc 0\n\
         emit:\n\
             add r1, '0'\n\
             svc 1\n\
             ret\n";

    /// Flags survive across pushf/clobber/popf, shifts and setcc
    /// consume deferred flags, and test+jcc fuses.
    const FLAGGY: &str = "    .global _start\n\
         _start:\n\
             mov r1, 6\n\
             cmp r1, 6\n\
             pushf\n\
             add r1, 100\n\
             popf\n\
             je .ok\n\
             halt\n\
         .ok:\n\
             mov r2, 3\n\
             test r2, r2\n\
             jne .go\n\
             halt\n\
         .go:\n\
             shl r2, 2\n\
             setne r3\n\
             add r1, r3\n\
             neg r1\n\
             neg r1\n\
             not r4\n\
             not r4\n\
             svc 0\n";

    fn cache_for(exe: &Executable) -> BlockCache {
        BlockCache::build(exe, [exe.entry]).expect("text decodes")
    }

    fn assert_state_matches(label: &str, got: &Machine, want: &Machine) {
        assert_eq!(got.pc(), want.pc(), "{label}: pc");
        assert_eq!(got.flags(), want.flags(), "{label}: flags");
        for r in 0..16 {
            let r = rr_isa::Reg::from_index(r);
            assert_eq!(got.reg(r), want.reg(r), "{label}: {r:?}");
        }
        assert_eq!(got.output(), want.output(), "{label}: output");
        assert_eq!(got.stopped(), want.stopped(), "{label}: stopped");
    }

    #[test]
    fn fused_predicates_match_eager_flag_evaluation() {
        let values: [u64; 8] =
            [0, 1, 7, 0x8000, u64::MAX, i64::MIN as u64, i64::MAX as u64, u64::MAX - 1];
        for cc in Cond::ALL {
            for &a in &values {
                for &b in &values {
                    assert_eq!(
                        cond_of_sub(cc, a, b),
                        cc.eval(Flags::from_sub(a, b)),
                        "cond_of_sub {cc} {a} {b}"
                    );
                }
                assert_eq!(
                    cond_of_logic(cc, a),
                    cc.eval(Flags::from_logic(a)),
                    "cond_of_logic {cc} {a}"
                );
            }
        }
    }

    #[test]
    fn pending_materializes_exact_flags() {
        let values: [u64; 6] = [0, 1, u64::MAX, i64::MIN as u64, i64::MAX as u64, 42];
        for &a in &values {
            for &b in &values {
                let mut p = Pending::Add { a, b };
                assert_eq!(p.take(), Some(Flags::from_add(a, b)));
                assert_eq!(p, Pending::Clean);
                assert_eq!(p.take(), None);
                let mut p = Pending::Sub { a, b };
                assert_eq!(p.take(), Some(Flags::from_sub(a, b)));
            }
            let mut p = Pending::Logic { r: a };
            assert_eq!(p.take(), Some(Flags::from_logic(a)));
            for overflow in [false, true] {
                let mut p = Pending::Mul { r: a, overflow };
                let f = p.take().unwrap();
                assert_eq!((f.z, f.n), (a == 0, (a as i64) < 0));
                assert_eq!((f.c, f.v), (overflow, overflow));
            }
            for carry in [false, true] {
                let mut p = Pending::Shift { r: a, carry };
                let f = p.take().unwrap();
                assert_eq!((f.c, f.v), (carry, false));
            }
        }
    }

    #[test]
    fn uop_execution_matches_interpreter_exactly() {
        for src in [LOOPY, FLAGGY] {
            let exe = assemble_and_link(src).unwrap();
            let mut reference = Machine::new(&exe, &[]);
            let want = reference.run(10_000);

            let cache = cache_for(&exe);
            let mut m = Machine::new(&exe, &[]);
            let mut stats = BlockStats::default();
            let got = m.run_uops(
                &cache,
                UopConfig { hot_threshold: 0, ..UopConfig::default() },
                10_000,
                &mut stats,
            );

            assert_eq!(got, want);
            assert_state_matches("eager uops", &m, &reference);
            assert_eq!(stats.total(), got.steps);
            assert!(stats.uop_steps > 0, "{stats:?}");
            assert_eq!(stats.block_steps, 0, "eager tiering never runs decoded: {stats:?}");
            assert!(stats.blocks_compiled > 0, "{stats:?}");
        }
    }

    #[test]
    fn fused_idioms_skip_flag_materialization() {
        let exe = assemble_and_link(LOOPY).unwrap();
        let cache = cache_for(&exe);
        let mut m = Machine::new(&exe, &[]);
        let mut stats = BlockStats::default();
        m.run_uops(
            &cache,
            UopConfig { hot_threshold: 0, ..UopConfig::default() },
            10_000,
            &mut stats,
        );
        // Five loop iterations execute five fused cmp+jne pairs; only
        // block exits materialize, so materializations stay far below
        // the count of flag-setting instructions executed.
        assert!(
            stats.flag_materializations < stats.uop_steps / 4,
            "lazy flags should rarely materialize: {stats:?}"
        );
    }

    #[test]
    fn fences_landing_mid_block_and_mid_fusion_are_precise() {
        for src in [LOOPY, FLAGGY] {
            let exe = assemble_and_link(src).unwrap();
            let total = {
                let mut m = Machine::new(&exe, &[]);
                m.run(10_000).steps
            };
            let cache = cache_for(&exe);
            for hot_threshold in [0, 1, 8] {
                for fence in 0..=total + 2 {
                    let mut reference = Machine::new(&exe, &[]);
                    let want = reference.run(fence);
                    let mut m = Machine::new(&exe, &[]);
                    let mut stats = BlockStats::default();
                    let config = UopConfig { hot_threshold, ..UopConfig::default() };
                    let got = m.run_uops(&cache, config, fence, &mut stats);
                    assert_eq!(got, want, "fence={fence} hot={hot_threshold}");
                    assert_state_matches(
                        &format!("fence={fence} hot={hot_threshold}"),
                        &m,
                        &reference,
                    );
                    assert_eq!(stats.total(), got.steps, "fence={fence}");
                }
            }
        }
    }

    #[test]
    fn tiering_promotes_blocks_after_the_threshold() {
        let exe = assemble_and_link(LOOPY).unwrap();
        let cache = cache_for(&exe);
        let mut m = Machine::new(&exe, &[]);
        let mut stats = BlockStats::default();
        let result = m.run_uops(
            &cache,
            UopConfig { hot_threshold: 2, ..UopConfig::default() },
            10_000,
            &mut stats,
        );

        let mut reference = Machine::new(&exe, &[]);
        assert_eq!(result, reference.run(10_000));
        // The loop body crosses the threshold and is promoted; the cold
        // prologue keeps running decoded.
        assert!(stats.tier_promotions > 0, "{stats:?}");
        assert!(stats.blocks_compiled > 0, "{stats:?}");
        assert!(stats.uop_steps > 0, "{stats:?}");
        assert!(stats.block_steps > 0, "cold blocks run decoded: {stats:?}");
        assert_eq!(stats.total(), result.steps);
        assert_eq!(stats.blocks_compiled, stats.tier_promotions);
    }

    #[test]
    fn compiled_bodies_are_shared_across_machines() {
        let exe = assemble_and_link(LOOPY).unwrap();
        let cache = cache_for(&exe);
        let mut first_stats = BlockStats::default();
        Machine::new(&exe, &[]).run_uops(&cache, UopConfig::default(), 10_000, &mut first_stats);
        assert!(first_stats.blocks_compiled > 0);
        // A second machine over the same cache reuses every compiled
        // body: no compiles, no promotions, and no decoded warm-up.
        let mut second_stats = BlockStats::default();
        let mut m = Machine::new(&exe, &[]);
        let result = m.run_uops(&cache, UopConfig::default(), 10_000, &mut second_stats);
        assert_eq!(second_stats.blocks_compiled, 0, "{second_stats:?}");
        assert_eq!(second_stats.tier_promotions, 0, "{second_stats:?}");
        assert_eq!(second_stats.block_steps, 0, "{second_stats:?}");
        assert_eq!(second_stats.uop_steps + second_stats.interp_steps, result.steps);
    }

    #[test]
    fn traced_uop_run_matches_interpreter_trace() {
        for hot_threshold in [0, 1, 8] {
            let exe = assemble_and_link(LOOPY).unwrap();
            let mut ref_trace = Vec::new();
            let mut reference = Machine::new(&exe, &[]);
            let want = reference.run_with(10_000, |m| ref_trace.push(m.pc()));

            let cache = cache_for(&exe);
            let mut m = Machine::new(&exe, &[]);
            let mut stats = BlockStats::default();
            let mut trace = Vec::new();
            let config = UopConfig { hot_threshold, ..UopConfig::default() };
            let got = m.run_uops_traced(&cache, config, 10_000, &mut stats, &mut trace);
            assert_eq!(got, want, "hot={hot_threshold}");
            assert_eq!(trace, ref_trace, "hot={hot_threshold}");
        }
    }

    #[test]
    fn crash_taxonomy_matches_the_interpreter() {
        let prelude = "    .global _start\n_start:\n";
        let cases = [
            format!("{prelude}    mov r1, 1\n    halt\n"),
            format!("{prelude}    mov r1, 4\n    mov r2, 0\n    udiv r1, r2\n    svc 0\n"),
            format!("{prelude}    mov r2, 0x99999000\n    load r1, [r2]\n    svc 0\n"),
            format!("{prelude}    mov r2, 0x1000\n    store [r2], r1\n    svc 0\n"),
            format!("{prelude}    svc 200\n"),
            format!("{prelude}    mov r1, target\n    jmpr r1\n    .data\ntarget:\n    .quad 0\n"),
            format!("{prelude}    cmp r1, 1\n    mov r15, 0x40\n    pushf\n    svc 0\n"),
            format!("{prelude}    mov r15, 0x40\n    cmp r1, 1\n    popf\n    svc 0\n"),
        ];
        for src in &cases {
            let exe = assemble_and_link(src).unwrap();
            let mut reference = Machine::new(&exe, &[]);
            let want = reference.run(100);
            let cache = cache_for(&exe);
            let mut m = Machine::new(&exe, &[]);
            let mut stats = BlockStats::default();
            let got = m.run_uops(
                &cache,
                UopConfig { hot_threshold: 0, ..UopConfig::default() },
                100,
                &mut stats,
            );
            assert_eq!(got, want, "{src}");
            assert_state_matches(src, &m, &reference);
        }
    }

    /// Address of the first instruction at or after `from` that
    /// `matches`, walking the text in decode order.
    fn find_instr(exe: &Executable, from: u64, matches: impl Fn(&Instr) -> bool) -> u64 {
        let text = exe.text_range();
        let mut pc = from;
        while pc < text.end {
            let off = (pc - text.start) as usize;
            let (insn, len) = rr_isa::decode(&exe.text_bytes()[off..]).expect("text decodes");
            if matches(&insn) {
                return pc;
            }
            pc += len as u64;
        }
        panic!("no matching instruction");
    }

    #[test]
    fn poked_code_runs_from_the_overlay() {
        let exe = assemble_and_link(LOOPY).unwrap();
        let cache = cache_for(&exe);
        let config = UopConfig { hot_threshold: 0, ..UopConfig::default() };
        // Warm the cache so the loop block is already compiled.
        let mut warm = BlockStats::default();
        Machine::new(&exe, &[]).run_uops(&cache, config, 10_000, &mut warm);
        assert!(warm.blocks_compiled > 0);

        // A flip that still decodes and changes behaviour: `add r1, '0'`
        // in `emit` becomes `add r1, '1'`. `emit` runs from the overlay,
        // the untouched loop block keeps running compiled, and nothing
        // is interpreted.
        let add = find_instr(&exe, exe.entry, |i| matches!(i, Instr::AluRI { imm: 0x30, .. }));
        let mut reference = Machine::new(&exe, &[]);
        let mut m = Machine::new(&exe, &[]);
        for machine in [&mut reference, &mut m] {
            let byte = machine.peek_bytes(add + 2, 1).unwrap()[0];
            assert!(machine.poke_bytes(add + 2, &[byte ^ 0x01]));
        }
        let want = reference.run(10_000);
        let mut stats = BlockStats::default();
        let got = m.run_uops(&cache, config, 10_000, &mut stats);
        assert_eq!(got, want);
        assert_state_matches("decodable flip", &m, &reference);
        assert_eq!(m.output(), b"65432");
        assert_eq!(stats.interp_steps, 0, "modified code must run decoded: {stats:?}");
        assert!(stats.dirty_blocks_decoded > 0, "{stats:?}");
        assert!(stats.uop_steps > 0, "clean blocks stay compiled: {stats:?}");
        assert!(stats.block_steps > 0, "overlay blocks run decoded: {stats:?}");
        assert_eq!(stats.total(), got.steps);

        // A flip that no longer decodes: the same illegal-instruction
        // crash at the same step, raised by the interpreter.
        let mut reference = Machine::new(&exe, &[]);
        let mut m = Machine::new(&exe, &[]);
        let target = exe.entry;
        for machine in [&mut reference, &mut m] {
            let byte = machine.peek_bytes(target, 1).unwrap()[0];
            assert!(machine.poke_bytes(target, &[byte ^ 0x40]));
        }
        let want = reference.run(10_000);
        assert!(
            matches!(
                want.outcome,
                RunOutcome::Crashed { fault: CpuFault::IllegalInstruction(_), .. }
            ),
            "{want:?}"
        );
        let mut stats = BlockStats::default();
        let got = m.run_uops(&cache, config, 10_000, &mut stats);
        assert_eq!(got, want);
        assert_state_matches("undecodable flip", &m, &reference);
        assert_eq!(stats.interp_steps, 1, "{stats:?}");
        assert_eq!(stats.dirty_blocks_decoded, 0, "{stats:?}");
    }

    #[test]
    fn mid_block_entry_at_a_fused_branch_slot_stays_exact() {
        // Jump straight at the `jne` inside the fused pair: the branch
        // slot must behave as a plain jcc against current flags.
        let src = "    .global _start\n\
             _start:\n\
                 mov r1, 1\n\
                 cmp r1, 1\n\
                 jmp .at_branch\n\
             .dead:\n\
                 cmp r1, 99\n\
             .at_branch:\n\
                 jne .dead\n\
                 mov r1, 7\n\
                 svc 0\n";
        let exe = assemble_and_link(src).unwrap();
        let mut reference = Machine::new(&exe, &[]);
        let want = reference.run(100);
        // Every instruction start as a leader maximizes mid-block entry.
        let cache = BlockCache::build(&exe, exe.text_range().chain([exe.entry])).unwrap();
        let mut m = Machine::new(&exe, &[]);
        let mut stats = BlockStats::default();
        let got = m.run_uops(
            &cache,
            UopConfig { hot_threshold: 0, ..UopConfig::default() },
            100,
            &mut stats,
        );
        assert_eq!(got, want);
        assert_state_matches("mid-block entry", &m, &reference);
    }

    #[test]
    fn compile_is_deterministic_and_fuses_cmp_jcc() {
        let exe = assemble_and_link(LOOPY).unwrap();
        let cache = cache_for(&exe);
        let (block, _) = cache.lookup(exe.entry).unwrap();
        let a = compile_block(block);
        let b = compile_block(block);
        assert_eq!(a, b);
        assert_eq!(a.entries.len(), block.body.len(), "one slot per instruction");
        for (entry, &pc) in a.entries.iter().zip(&block.pcs) {
            assert_eq!(entry.pc, pc);
        }
        // The LOOPY loop block ends `cmp r2, 0` + `jne .loop`.
        let loop_block = cache.block_ranges().zip(0u32..).find_map(|(range, _)| {
            let (b, _) = cache.lookup(range.start)?;
            let fused = compile_block(b).entries.iter().any(|e| matches!(e.op, Uop::CmpJcc { .. }));
            fused.then_some(b.start)
        });
        assert!(loop_block.is_some(), "cmp+jne idiom must fuse");
    }

    /// A single-superblock loop rich in optimizer fodder: a
    /// store-to-load pair (forwarding), back-to-back loads of one
    /// address (redundant-load elimination), and arithmetic whose flags
    /// are immediately redefined (dead-flag elimination).
    const FORWARDY: &str = "    .global _start\n\
         _start:\n\
             mov r4, buffer\n\
             mov r2, 5\n\
         .loop:\n\
             store [r4], r2\n\
             load r1, [r4]\n\
             load r3, [r4]\n\
             add r1, 1\n\
             sub r2, 1\n\
             cmp r2, 0\n\
             jne .loop\n\
             mov r1, 0\n\
             svc 0\n\
             .data\n\
         buffer:\n\
             .space 8\n";

    #[test]
    fn optimized_execution_matches_the_exact_lowering() {
        for src in [LOOPY, FLAGGY, FORWARDY] {
            let exe = assemble_and_link(src).unwrap();
            let mut reference = Machine::new(&exe, &[]);
            let want = reference.run(10_000);

            let mut results = Vec::new();
            for opt in [OptLevel::None, OptLevel::Full] {
                // Fresh cache per level: the first promotion's config
                // decides the shared body.
                let cache = cache_for(&exe);
                let mut m = Machine::new(&exe, &[]);
                let mut stats = BlockStats::default();
                let mut trace = Vec::new();
                let config = UopConfig { hot_threshold: 0, opt };
                let got = m.run_uops_traced(&cache, config, 10_000, &mut stats, &mut trace);
                assert_eq!(got, want, "opt {opt}");
                assert_state_matches(&format!("opt {opt}"), &m, &reference);
                results.push((trace, stats));
            }
            let (none_trace, none_stats) = &results[0];
            let (full_trace, full_stats) = &results[1];
            assert_eq!(none_trace, full_trace, "optimization must not change the trace");
            assert_eq!(none_stats.blocks_optimized, 0, "{none_stats:?}");
            assert_eq!(none_stats.uops_eliminated, 0, "{none_stats:?}");
            assert_eq!(none_stats.total(), full_stats.total());
            if std::ptr::eq(src, FORWARDY) {
                assert!(full_stats.blocks_optimized > 0, "{full_stats:?}");
                assert!(full_stats.uops_eliminated > 0, "{full_stats:?}");
                assert!(full_stats.loads_forwarded >= 2, "{full_stats:?}");
                assert!(full_stats.flag_defs_killed > 0, "{full_stats:?}");
            }
        }
    }

    #[test]
    fn fenced_optimized_runs_stay_exact() {
        // Chunked runs over the forwarding-rich loop: fences land at
        // every offset, forcing constant hand-offs between the
        // optimized body (full passes) and the exact body (tails).
        let exe = assemble_and_link(FORWARDY).unwrap();
        let total = {
            let mut m = Machine::new(&exe, &[]);
            m.run(10_000).steps
        };
        let cache = cache_for(&exe);
        for fence in 0..=total + 2 {
            let mut reference = Machine::new(&exe, &[]);
            let want = reference.run(fence);
            let mut m = Machine::new(&exe, &[]);
            let mut stats = BlockStats::default();
            let config = UopConfig { hot_threshold: 0, opt: OptLevel::Full };
            let got = m.run_uops(&cache, config, fence, &mut stats);
            assert_eq!(got, want, "fence={fence}");
            assert_state_matches(&format!("fence={fence}"), &m, &reference);
        }
    }

    #[test]
    fn opt_level_parses_and_displays() {
        assert_eq!("none".parse::<OptLevel>(), Ok(OptLevel::None));
        assert_eq!("full".parse::<OptLevel>(), Ok(OptLevel::Full));
        assert!("fast".parse::<OptLevel>().is_err());
        assert_eq!(OptLevel::Full.to_string(), "full");
        assert_eq!(OptLevel::default(), OptLevel::Full);
    }

    #[test]
    fn ir_bridge_lowers_blocks_to_verified_functions() {
        let src = "    .global _start\n\
             _start:\n\
                 mov r1, 5\n\
                 add r1, 3\n\
                 mov r2, buffer\n\
                 store [r2], r1\n\
                 load r3, [r2]\n\
                 cmp r3, 8\n\
                 jne .bad\n\
                 mov r1, 0\n\
                 svc 0\n\
             .bad:\n\
                 halt\n\
                 .data\n\
             buffer:\n\
                 .space 8\n";
        let exe = assemble_and_link(src).unwrap();
        let cache = cache_for(&exe);
        let f = lower_block_to_ir(&cache, exe.entry).expect("bridged subset");
        rr_ir::verify_function(&f, None).expect("bridge emits verified IR");
        // The trailing jne becomes a CondBr seam.
        let has_condbr =
            f.block_ids().any(|id| matches!(f.block(id).term, rr_ir::Terminator::CondBr { .. }));
        assert!(has_condbr, "conditional tail lowers to CondBr");
        // No block there at a data address.
        assert!(lower_block_to_ir(&cache, 0).is_none());
    }
}
