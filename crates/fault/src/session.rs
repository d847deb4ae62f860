//! The owned, reusable campaign session: golden runs, fault enumeration,
//! and the one unified runner.
//!
//! A [`CampaignSession`] owns its [`Executable`] and inputs (`Arc`-shared,
//! so sessions move freely across threads and outlive the scope that
//! built them), performs the golden runs once at construction, and then
//! evaluates any number of [`FaultModel`]s through a single entry point,
//! [`CampaignSession::run`]:
//!
//! * the **engine** (naive replay-from-0 vs checkpointed restore) is
//!   fixed at construction by [`CampaignConfig::engine`] — a naive
//!   session never records snapshots and can never be asked for a
//!   checkpointed evaluation, so the old "checkpointed run on a
//!   snapshot-less campaign silently replays from zero" footgun is
//!   unrepresentable;
//! * the **sink** argument selects consumption: [`Collect`] materializes
//!   one [`CampaignReport`] per model, [`Stream`] folds classifications
//!   straight into one [`ModelSummary`] per model in O(shards) memory;
//! * all models passed to one `run` call share a single scheduling pass
//!   over the trace sites (per [`CampaignConfig::shard`] policy).

use crate::analysis::{fault_verdict, plan_is_benign, Analysis, StaticVerdict};
use crate::cache::{self, CampaignSeed, ClassificationCache, ReuseStats};
use crate::config::{CampaignConfig, CampaignEngine, ExecMode};
use crate::model::{enumerate_plans_pruned, FaultModel};
use crate::oracle::{Behavior, GoldenPairOracle, Oracle};
use crate::report::{CampaignReport, FaultResult, ModelSummary, Summary};
use crate::site::{Fault, FaultClass, FaultEffect, FaultPlan, FaultSite};
use rr_disasm::ListingDelta;
use rr_emu::{execute, BlockStats, Execution, Machine, RunOutcome, RunResult};
use rr_engine::shard::{run_bucketed, run_scheduled, scheduled_fold};
use rr_engine::{ReplayConfig, ReplayEngine, ReplayFootprint};
use rr_isa::{decode, Flags, MAX_INSTR_LEN};
use rr_obj::Executable;
use rr_telemetry::{Counter, Gauge, MetricsSnapshot, SpanKind, Telemetry};
use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Why a session could not be built.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CampaignError {
    /// No bad (traced) input was supplied to the builder.
    MissingBadInput,
    /// The default golden-pair oracle needs a good input (or a trusted
    /// golden-good behaviour), and neither was supplied. Custom oracles
    /// lift the requirement.
    MissingGoodInput,
    /// The good input did not exit normally.
    GoldenGoodFailed(RunOutcome),
    /// The bad input did not exit normally.
    GoldenBadFailed(RunOutcome),
    /// Good and bad inputs behave identically — there is no attacker goal
    /// to reach and no vulnerability to measure.
    IndistinguishableBehaviors,
}

impl fmt::Display for CampaignError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CampaignError::MissingBadInput => {
                write!(f, "no bad (traced) input was given to the session builder")
            }
            CampaignError::MissingGoodInput => {
                write!(f, "the golden-pair oracle needs a good input")
            }
            CampaignError::GoldenGoodFailed(o) => write!(f, "golden good-input run failed: {o}"),
            CampaignError::GoldenBadFailed(o) => write!(f, "golden bad-input run failed: {o}"),
            CampaignError::IndistinguishableBehaviors => {
                write!(f, "good and bad inputs produce identical behaviour")
            }
        }
    }
}

impl std::error::Error for CampaignError {}

/// Builds a [`CampaignSession`] — see [`CampaignSession::builder`].
#[derive(Debug, Clone)]
pub struct CampaignSessionBuilder {
    exe: Arc<Executable>,
    good_input: Option<Arc<[u8]>>,
    bad_input: Option<Arc<[u8]>>,
    config: CampaignConfig,
    oracle: Option<Arc<dyn Oracle>>,
    golden_good: Option<Execution>,
    seed: Option<(CampaignSeed, ListingDelta)>,
    telemetry: Telemetry,
}

impl CampaignSessionBuilder {
    /// The good input for the default golden-pair oracle. Not needed
    /// when a custom [`Oracle`] or a trusted
    /// [`golden_good`](CampaignSessionBuilder::golden_good) behaviour is
    /// supplied.
    #[must_use]
    pub fn good_input(mut self, input: impl Into<Arc<[u8]>>) -> Self {
        self.good_input = Some(input.into());
        self
    }

    /// The bad input: the run that is traced, checkpointed, and faulted.
    /// Required.
    #[must_use]
    pub fn bad_input(mut self, input: impl Into<Arc<[u8]>>) -> Self {
        self.bad_input = Some(input.into());
        self
    }

    /// Replaces the whole configuration (step budgets, threads, shard
    /// policy, engine).
    #[must_use]
    pub fn config(mut self, config: CampaignConfig) -> Self {
        self.config = config;
        self
    }

    /// Sets the execution engine ([`CampaignConfig::engine`]): decides
    /// at construction whether snapshots are recorded.
    #[must_use]
    pub fn engine(mut self, engine: CampaignEngine) -> Self {
        self.config.engine = engine;
        self
    }

    /// Replaces the default golden-pair oracle with a custom classifier.
    /// Sessions with a custom oracle need no good input.
    #[must_use]
    pub fn oracle(mut self, oracle: impl Oracle + 'static) -> Self {
        self.oracle = Some(Arc::new(oracle));
        self
    }

    /// Supplies a **trusted** golden good-input behaviour, skipping the
    /// good-input golden run.
    ///
    /// For callers that already know how the good input behaves — the
    /// Faulter+Patcher loop verifies after every patch that the rebuilt
    /// binary preserves both golden behaviours, so iteration `n+1` can
    /// reuse iteration 0's golden-good run instead of re-executing it.
    /// The behaviour is still validated to be a normal exit.
    #[must_use]
    pub fn golden_good(mut self, golden: Execution) -> Self {
        self.golden_good = Some(golden);
        self
    }

    /// Seeds the session with a prior session's classifications
    /// ([`CampaignSession::seed`]) and the [`ListingDelta`] of the binary
    /// rewrite separating the two — the incremental re-campaign seam.
    ///
    /// At build time the new golden bad-input trace is aligned with the
    /// seed's through the delta: sites whose injection point and nearby
    /// downstream trace window the rewrite left untouched adopt the prior
    /// [`FaultClass`] without executing anything, and (for checkpointed
    /// sessions) snapshots are recorded only for the trace region that
    /// actually needs re-execution
    /// ([`rr_engine::ReplayEngine::replay_range`]). Reuse is guarded by
    /// the oracle fingerprint: a seed whose oracle judged differently —
    /// or one without a fingerprint — is ignored wholesale. Either way
    /// classifications are identical to an unseeded session; only the
    /// work changes. [`CampaignSession::reuse_stats`] reports the split.
    #[must_use]
    pub fn seed_from(mut self, prior: CampaignSeed, delta: &ListingDelta) -> Self {
        self.seed = Some((prior, delta.clone()));
        self
    }

    /// Attaches a telemetry handle: the golden recording, every
    /// checkpoint restore, injection, classification, and the cache
    /// reuse guards report through it. Keep a clone to read
    /// [`rr_telemetry::Telemetry::metrics`] (or use
    /// [`CampaignSession::metrics`]). The default handle is disabled and
    /// the instrumentation costs nothing.
    #[must_use]
    pub fn telemetry(mut self, telemetry: Telemetry) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// Performs the golden pass and builds the session.
    ///
    /// One pass over the bad-input run yields the golden behaviour, the
    /// trace, *and* — for [`CampaignEngine::Checkpointed`] sessions —
    /// the replay checkpoints (adaptive √T interval unless the config
    /// pins one). [`CampaignEngine::Naive`] sessions skip snapshot
    /// capture and its memory cost entirely.
    ///
    /// # Errors
    ///
    /// See [`CampaignError`]: missing inputs, failed golden runs, and —
    /// for the default oracle — indistinguishable golden behaviours are
    /// all reported as typed errors.
    pub fn build(self) -> Result<CampaignSession, CampaignError> {
        let bad_input = self.bad_input.ok_or(CampaignError::MissingBadInput)?;
        let config = self.config;

        // Resolve the golden good-input behaviour if the oracle needs it.
        let needs_golden_good = self.oracle.is_none();
        let mut reused_golden_good = false;
        let golden_good = match (self.golden_good, &self.good_input) {
            (Some(trusted), _) => {
                reused_golden_good = true;
                Some(trusted)
            }
            (None, Some(good)) if needs_golden_good => {
                Some(execute(&self.exe, good, config.golden_max_steps))
            }
            (None, _) if needs_golden_good => return Err(CampaignError::MissingGoodInput),
            // A custom oracle never looks at the good run; don't pay for
            // it even when a good input happens to be supplied.
            (None, _) => None,
        };
        if let Some(golden_good) = &golden_good {
            if !golden_good.outcome.is_exit() {
                return Err(CampaignError::GoldenGoodFailed(golden_good.outcome));
            }
        }

        // Pre-decode the text into superblocks once per session. A
        // seeded session accounts the rewrite's invalidations against
        // the prior session's cache (and reuses it outright when the
        // text bytes are unchanged).
        let block_cache = if config.exec.uses_block_cache() {
            match &self.seed {
                Some((seed, delta)) => rr_engine::rebuild_block_cache(
                    seed.block_cache.as_ref(),
                    delta,
                    &self.exe,
                    &self.telemetry,
                ),
                None => rr_engine::build_block_cache(&self.exe, &self.telemetry),
            }
        } else {
            None
        };
        let replay_config = ReplayConfig {
            max_steps: config.golden_max_steps,
            checkpoint_interval: config.checkpoint_interval,
            max_retained_bytes: config.max_retained_bytes,
            record_snapshots: config.engine == CampaignEngine::Checkpointed,
            telemetry: self.telemetry.clone(),
            block_cache,
            exec: config.exec,
            uop: config.uop,
            ..ReplayConfig::default()
        };
        // A seeded checkpointed session defers snapshot capture: the
        // region worth checkpointing is only known once the fresh trace
        // has been aligned with the seed's, so the first pass records the
        // trace and behaviour alone.
        let defer_snapshots = self.seed.is_some() && config.engine == CampaignEngine::Checkpointed;
        let mut replay = ReplayEngine::record(
            &self.exe,
            &bad_input,
            &ReplayConfig {
                record_snapshots: replay_config.record_snapshots && !defer_snapshots,
                ..replay_config.clone()
            },
        );
        let golden_bad = replay.execution().clone();
        if !golden_bad.outcome.is_exit() {
            return Err(CampaignError::GoldenBadFailed(golden_bad.outcome));
        }

        let oracle: Arc<dyn Oracle> = match self.oracle {
            Some(oracle) => oracle,
            None => {
                let golden_good = golden_good.clone().expect("checked above");
                if golden_good.same_behavior(&golden_bad) {
                    return Err(CampaignError::IndistinguishableBehaviors);
                }
                Arc::new(GoldenPairOracle::new(golden_good, golden_bad.clone()))
            }
        };

        // Align the seed (if any) against the fresh trace: carried-over
        // classifications go to the cache; the invalidated region — if
        // anything needs re-execution at all — is re-recorded with
        // region-scoped snapshots.
        let faulted_budget =
            (golden_bad.steps * config.faulted_step_multiplier).max(config.faulted_min_steps);
        let mut cache = ClassificationCache::default();
        if let Some((seed, delta)) = &self.seed {
            let plan = cache::plan(
                seed,
                delta,
                replay.trace(),
                oracle.fingerprint(),
                faulted_budget,
                &self.telemetry,
            );
            cache = plan.cache;
            if config.engine == CampaignEngine::Checkpointed {
                // Re-record with snapshots: scoped to the invalidated
                // window when one exists, full-trace otherwise. The
                // no-window case could skip snapshots entirely for the
                // *seeded* models (everything answers from the cache),
                // but a model absent from the seed would then silently
                // replay every fault from step 0 — the exact
                // checkpointed-in-name-only degradation the session API
                // exists to make unrepresentable. One golden-pass of
                // recording buys that guarantee back.
                let scoped = match plan.snapshot_window {
                    Some(window) => {
                        ReplayEngine::replay_range(&self.exe, &bad_input, &replay_config, window)
                    }
                    None => ReplayEngine::record(&self.exe, &bad_input, &replay_config),
                };
                debug_assert_eq!(scoped.trace(), replay.trace(), "deterministic re-recording");
                replay = scoped;
            }
        }

        let sites = replay
            .trace()
            .iter()
            .enumerate()
            .filter_map(|(step, &pc)| {
                let bytes = peek_code(&self.exe, pc)?;
                let (insn, len) = decode(bytes).ok()?;
                Some(FaultSite { step: step as u64, pc, insn, len })
            })
            .collect();

        // The static fault-effect analysis backing pruning and auditing.
        // A binary whose CFG cannot be recovered falls back to no
        // analysis — every verdict is effectively Unknown and nothing is
        // pruned, which is always sound.
        let analysis = if config.static_prune || config.audit_analysis {
            Analysis::from_executable(&self.exe).ok()
        } else {
            None
        };

        Ok(CampaignSession {
            exe: self.exe,
            good_input: self.good_input,
            bad_input,
            golden_good,
            golden_bad,
            sites,
            config,
            oracle,
            replay,
            analysis,
            reused_golden_good,
            cache,
            reused: AtomicUsize::new(0),
            replayed: AtomicUsize::new(0),
            telemetry: self.telemetry,
        })
    }
}

/// An owned, reusable fault-injection session against one executable.
///
/// Construction ([`CampaignSession::builder`]) performs the golden runs
/// and records the bad-input trace; [`CampaignSession::run`] then
/// evaluates [`FaultModel`]s against every trace site. See the crate
/// docs for the full procedure and an example.
#[derive(Debug)]
pub struct CampaignSession {
    exe: Arc<Executable>,
    good_input: Option<Arc<[u8]>>,
    bad_input: Arc<[u8]>,
    golden_good: Option<Execution>,
    golden_bad: Execution,
    sites: Vec<FaultSite>,
    config: CampaignConfig,
    oracle: Arc<dyn Oracle>,
    /// Trace + behaviour + (for checkpointed sessions) snapshots,
    /// recorded along the golden bad-input run at construction and
    /// shared by every evaluation of this session.
    replay: ReplayEngine,
    /// Static fault-effect analysis, built at construction when the
    /// config enables pruning or auditing and the binary's CFG could be
    /// recovered; `None` otherwise (no pruning, no audit checks).
    analysis: Option<Analysis>,
    reused_golden_good: bool,
    /// Classifications carried over from a seeding session
    /// ([`CampaignSessionBuilder::seed_from`]); empty when unseeded.
    cache: ClassificationCache,
    /// Fault evaluations served from the cache.
    reused: AtomicUsize,
    /// Fault evaluations that actually executed.
    replayed: AtomicUsize,
    /// Telemetry handle every evaluation reports through
    /// ([`CampaignSessionBuilder::telemetry`]); disabled by default.
    telemetry: Telemetry,
}

impl CampaignSession {
    /// Starts a session builder for an executable.
    ///
    /// The executable is `Arc`-shared: pass an owned [`Executable`] (or
    /// an existing `Arc`) and the session keeps it alive for as long as
    /// it — or any clone of the `Arc` — lives.
    pub fn builder(exe: impl Into<Arc<Executable>>) -> CampaignSessionBuilder {
        CampaignSessionBuilder {
            exe: exe.into(),
            good_input: None,
            bad_input: None,
            config: CampaignConfig::default(),
            oracle: None,
            golden_good: None,
            seed: None,
            telemetry: Telemetry::default(),
        }
    }

    /// The executable under test.
    pub fn exe(&self) -> &Arc<Executable> {
        &self.exe
    }

    /// The good input, when one was supplied.
    pub fn good_input(&self) -> Option<&[u8]> {
        self.good_input.as_deref()
    }

    /// The bad (traced) input.
    pub fn bad_input(&self) -> &[u8] {
        &self.bad_input
    }

    /// The golden good-input behaviour — present for golden-pair
    /// sessions (run or [trusted](CampaignSessionBuilder::golden_good)),
    /// absent for custom-oracle sessions that never executed it.
    pub fn golden_good(&self) -> Option<&Execution> {
        self.golden_good.as_ref()
    }

    /// The golden bad-input behaviour.
    pub fn golden_bad(&self) -> &Execution {
        &self.golden_bad
    }

    /// Whether construction reused a trusted golden-good behaviour
    /// instead of executing the good input
    /// ([`CampaignSessionBuilder::golden_good`]).
    pub fn reused_golden_good(&self) -> bool {
        self.reused_golden_good
    }

    /// The fault sites (one per executed instruction of the bad-input run).
    pub fn sites(&self) -> &[FaultSite] {
        &self.sites
    }

    /// The session's configuration.
    pub fn config(&self) -> &CampaignConfig {
        &self.config
    }

    /// The engine this session was built for (and evaluates with).
    pub fn engine(&self) -> CampaignEngine {
        self.config.engine
    }

    /// The classifying oracle.
    pub fn oracle(&self) -> &dyn Oracle {
        self.oracle.as_ref()
    }

    /// The replay engine recorded alongside the golden bad-input run at
    /// construction.
    pub fn replay_engine(&self) -> &ReplayEngine {
        &self.replay
    }

    /// Packages what this session learned for the next session of an
    /// incremental loop: its golden bad-input trace, the given per-model
    /// `reports` (from this session's [`CampaignSession::run`]), the
    /// oracle fingerprint, and the faulted-run step budget. Feed the
    /// result — together with the [`ListingDelta`] of the intervening
    /// rewrite — to [`CampaignSessionBuilder::seed_from`].
    pub fn seed(&self, reports: &[CampaignReport]) -> CampaignSeed {
        CampaignSeed {
            trace: self.replay.trace().to_vec(),
            reports: reports.to_vec(),
            oracle_fingerprint: self.oracle.fingerprint(),
            faulted_budget: (self.golden_bad.steps * self.config.faulted_step_multiplier)
                .max(self.config.faulted_min_steps),
            block_cache: self.replay.block_cache().cloned(),
        }
    }

    /// How this session's fault evaluations were served so far: answered
    /// from the carried-over [`ClassificationCache`] vs actually
    /// replayed. Both zero before the first [`CampaignSession::run`].
    pub fn reuse_stats(&self) -> ReuseStats {
        ReuseStats {
            sites_reused: self.reused.load(Ordering::Relaxed),
            sites_replayed: self.replayed.load(Ordering::Relaxed),
        }
    }

    /// Number of classifications carried over from the seeding session
    /// (zero for unseeded sessions).
    pub fn cached_classifications(&self) -> usize {
        self.cache.len()
    }

    /// Snapshot of the attached telemetry's aggregated metrics, or
    /// `None` when the session was built without a telemetry handle
    /// ([`CampaignSessionBuilder::telemetry`]).
    pub fn metrics(&self) -> Option<MetricsSnapshot> {
        self.telemetry.metrics()
    }

    /// Memory footprint of the checkpoints retained for this session:
    /// page-granular retained bytes, and the region-COW baseline for the
    /// same recording. Naive sessions report one checkpoint and zero
    /// retained bytes.
    pub fn replay_footprint(&self) -> ReplayFootprint {
        self.replay.footprint()
    }

    /// Samples the session down to at most `max_sites` trace sites by
    /// setting the site stride from the recorded trace length
    /// (statistical fault injection for long traces; Leveugle et al.).
    /// Returns the stride chosen.
    pub fn sample_sites(&mut self, max_sites: usize) -> usize {
        let stride = (self.golden_bad.steps as usize).div_ceil(max_sites.max(1)).max(1);
        self.config.site_stride = stride;
        stride
    }

    /// Evaluates every fault each of `models` enumerates at every
    /// (sampled) trace site, in **one scheduling pass** shared by all
    /// models, and consumes the classifications through `sink`:
    ///
    /// * [`Collect`] → one [`CampaignReport`] per model (site order);
    /// * [`Stream`] → one [`ModelSummary`] per model, without ever
    ///   materializing per-fault results — O(sites + shards) memory no
    ///   matter how many faults the models produce.
    ///
    /// The engine, thread count, and shard policy come from the
    /// session's [`CampaignConfig`]. Classifications are identical
    /// across engines, sinks, thread counts, and shard policies — the
    /// emulator is deterministic, and the equivalence test suite
    /// enforces it.
    pub fn run<S: Sink>(&self, models: &[&dyn FaultModel], sink: S) -> S::Output {
        let _ = sink;
        S::drive(self, models)
    }

    /// The static fault-effect analysis backing pruning and auditing —
    /// `None` when the config disabled both, or the binary's CFG could
    /// not be recovered.
    pub fn analysis(&self) -> Option<&Analysis> {
        self.analysis.as_ref()
    }

    /// The analysis enumeration prunes with: `None` under
    /// `--no-static-prune` (nothing is dropped) *and* under
    /// `--audit-analysis` (the audit must execute the statically-benign
    /// plans it cross-checks).
    fn pruning_analysis(&self) -> Option<&Analysis> {
        if self.config.static_prune && !self.config.audit_analysis {
            self.analysis.as_ref()
        } else {
            None
        }
    }

    /// The sites `run` evaluates: every `site_stride`-th trace site.
    fn sampled_sites(&self) -> Vec<&FaultSite> {
        self.sites.iter().step_by(self.config.site_stride.max(1)).collect()
    }

    /// The step budget faulted continuations run under.
    fn faulted_budget(&self) -> u64 {
        (self.golden_bad.steps * self.config.faulted_step_multiplier)
            .max(self.config.faulted_min_steps)
    }

    /// Classifies one plan of `model`: served from the carried-over
    /// [`ClassificationCache`] when the seed plan proved the prior
    /// classification still valid, otherwise by positioning a machine at
    /// the plan's earliest injection step (restore + step forward for
    /// checkpointed sessions; replay from step 0 for naive ones),
    /// injecting, resuming, and consulting the oracle.
    fn evaluate(&self, model: &'static str, plan: &FaultPlan) -> FaultClass {
        if let Some(class) = self.cache.lookup(model, plan) {
            self.reused.fetch_add(1, Ordering::Relaxed);
            self.note_plan(plan, class, true);
            return class;
        }
        self.replayed.fetch_add(1, Ordering::Relaxed);
        let class = match self.replay.machine_at(plan.earliest_step()) {
            Ok(machine) => self.inject_and_classify(machine, plan),
            Err(_) => FaultClass::ReplayDiverged,
        };
        self.note_plan(plan, class, false);
        class
    }

    /// Telemetry accounting for one classified plan.
    fn note_plan(&self, plan: &FaultPlan, class: FaultClass, from_cache: bool) {
        self.telemetry.count(Counter::PlansExecuted, 1);
        self.telemetry.count(if from_cache { Counter::CacheHits } else { Counter::CacheMisses }, 1);
        if class == FaultClass::Success {
            self.telemetry.success(plan.order());
        }
        // The audit cross-check: a statically-benign plan that just
        // classified as anything else is an analysis soundness
        // violation. Central here so both sinks and both scheduling
        // paths are covered.
        if self.config.audit_analysis && class != FaultClass::Benign {
            if let Some(analysis) = &self.analysis {
                if plan_is_benign(analysis, plan) {
                    self.telemetry.count(Counter::AuditFailures, 1);
                }
            }
        }
    }

    /// Applies the plan's injections to a machine positioned at the
    /// *earliest* injection's step, and classifies the outcome.
    ///
    /// Injections are **time-triggered**, like the physical glitches they
    /// model: after the first effect is applied (on the golden trace, so
    /// the program counter is verified against the recording), the
    /// machine free-runs and each later effect fires when the machine's
    /// step count reaches that injection's trace step — wherever control
    /// actually is by then, since the earlier fault may have diverted it.
    /// A run that exits or crashes before a later injection's time
    /// arrives is classified as-is: the attacker's second glitch fired
    /// into a finished program. The total faulted continuation shares one
    /// step budget, exactly like the single-fault case.
    fn inject_and_classify(&self, mut machine: Machine, plan: &FaultPlan) -> FaultClass {
        let inject_span = self.telemetry.span(SpanKind::Inject);
        let first = plan.first();
        if machine.pc() != first.pc {
            // The replay did not arrive where the trace says it should
            // have — report instead of asserting (determinism is the
            // emulator's contract; a violation costs one result, not the
            // whole campaign).
            return FaultClass::ReplayDiverged;
        }
        if let Err(class) = apply_effect(&mut machine, first) {
            return class;
        }
        let budget = self.faulted_budget();
        let mut used = 0u64;
        let mut prev_step = first.step;
        for fault in plan.iter().skip(1) {
            let gap = fault.step - prev_step;
            prev_step = fault.step;
            if gap > 0 {
                let allowed = gap.min(budget - used);
                let result = self.faulted_run(&mut machine, allowed);
                used += result.steps;
                if result.outcome != RunOutcome::TimedOut || allowed < gap {
                    // The run ended before this injection's time arrived
                    // (the earlier fault made it unreachable), or the
                    // shared budget ran out mid-gap. `run` reports budget
                    // exhaustion as TimedOut, which is exactly the class
                    // such a hang deserves — classify what happened.
                    let faulted = Behavior {
                        outcome: result.outcome,
                        output: machine.take_output(),
                        steps: used,
                    };
                    drop(inject_span);
                    return self.classify(&faulted);
                }
            }
            if let Err(class) = apply_effect(&mut machine, fault) {
                return class;
            }
        }
        let result = self.faulted_run(&mut machine, budget - used);
        let faulted = Behavior {
            outcome: result.outcome,
            output: machine.take_output(),
            steps: used + result.steps,
        };
        drop(inject_span);
        self.classify(&faulted)
    }

    /// Runs a faulted continuation for up to `max_steps`, block-cached
    /// when the session has a cache. Injections that rewrote code bytes
    /// ([`FaultEffect::FlipInstructionBit`]) marked those ranges
    /// exec-dirty, so the block executor never serves them from the
    /// shared cache: each call decodes the corrupted code from the
    /// machine's current bytes into its own overlay and runs it at
    /// block speed (undecodable bytes are interpreted, crashing exactly
    /// where the interpreter would).
    fn faulted_run(&self, machine: &mut Machine, max_steps: u64) -> RunResult {
        match self.replay.block_cache() {
            Some(cache) => self.run_accelerated(machine, cache, max_steps),
            None => machine.run(max_steps),
        }
    }

    /// Runs `max_steps` through the session's accelerated tier — compiled
    /// uop bodies under [`ExecMode::Uops`], decoded superblocks under
    /// [`ExecMode::Blocks`] — flushing per-run execution stats to
    /// telemetry.
    fn run_accelerated(
        &self,
        machine: &mut Machine,
        cache: &rr_emu::BlockCache,
        max_steps: u64,
    ) -> RunResult {
        let mut stats = BlockStats::default();
        let result = match self.replay.exec_mode() {
            ExecMode::Uops => {
                machine.run_uops(cache, self.replay.uop_config(), max_steps, &mut stats)
            }
            _ => machine.run_blocks(cache, max_steps, &mut stats),
        };
        rr_engine::flush_block_stats(&self.telemetry, stats);
        result
    }

    /// Consults the oracle under a [`SpanKind::Classify`] span.
    fn classify(&self, faulted: &Behavior) -> FaultClass {
        let _classify_span = self.telemetry.span(SpanKind::Classify);
        self.oracle.classify(faulted)
    }

    /// Evaluates every `(model, plan)` pair, scheduling per the session
    /// config: checkpointed sessions with [`CampaignConfig::bucketing`]
    /// group plans — singletons and multi-fault alike — by the
    /// checkpoint preceding their earliest injection and sweep each
    /// neighbourhood with one restore
    /// ([`CampaignSession::evaluate_bucket`]); otherwise every plan is
    /// positioned independently under the session's
    /// [`rr_engine::shard::ShardPolicy`]. Singleton plans used to take
    /// the per-plan path, but the bucket sweep wins for them too: one
    /// restore plus one forward walk serves every fault enumerated in
    /// the neighbourhood, where per-plan positioning re-pays the walk
    /// for each of the `8 × len` bit-flip faults at a single site.
    /// Classifications are identical either way.
    fn evaluate_all(&self, plans: &[(&'static str, FaultPlan)]) -> Vec<FaultClass> {
        let bucketed = self.config.bucketing
            && self.config.engine == CampaignEngine::Checkpointed
            && self.replay.records_snapshots();
        if bucketed {
            run_bucketed(
                plans,
                self.config.threads,
                |(_, plan)| self.replay.checkpoint_step_before(plan.earliest_step()),
                |&checkpoint_step, indices| self.evaluate_bucket(checkpoint_step, plans, indices),
            )
        } else {
            run_scheduled(plans, self.config.threads, self.config.shard, |(name, plan)| {
                self.evaluate(name, plan)
            })
        }
    }

    /// Evaluates one checkpoint neighbourhood: all of `indices` share the
    /// retained checkpoint at `checkpoint_step`. The checkpoint is
    /// restored **once**; a cursor machine then walks forward through the
    /// neighbourhood in ascending injection order, and each plan is
    /// evaluated on a cheap COW clone taken when the cursor reaches its
    /// earliest injection — so the per-plan positioning cost (restore +
    /// up to a whole checkpoint interval of forward stepping) is paid
    /// once per bucket instead of once per plan.
    fn evaluate_bucket(
        &self,
        checkpoint_step: u64,
        plans: &[(&'static str, FaultPlan)],
        indices: &[usize],
    ) -> Vec<FaultClass> {
        // The bucket-sweep span wraps the whole sweep, so the restore,
        // inject, and classify spans of its plans nest inside it (like
        // snapshot captures nest inside the record span).
        let _sweep_span = self.telemetry.span(SpanKind::BucketSweep);
        self.telemetry.count(Counter::BucketSweeps, 1);
        self.telemetry.count(Counter::BucketPlans, indices.len() as u64);
        let mut order: Vec<usize> = (0..indices.len()).collect();
        order.sort_by_key(|&k| plans[indices[k]].1.earliest_step());
        let mut out: Vec<Option<FaultClass>> = vec![None; indices.len()];
        // The cursor is lazy: a bucket answered entirely from the
        // classification cache never restores anything.
        let mut cursor: Option<(Machine, u64)> = None;
        let mut diverged = false;
        for k in order {
            let (name, plan) = &plans[indices[k]];
            if let Some(class) = self.cache.lookup(name, plan) {
                self.reused.fetch_add(1, Ordering::Relaxed);
                self.note_plan(plan, class, true);
                out[k] = Some(class);
                continue;
            }
            self.replayed.fetch_add(1, Ordering::Relaxed);
            if !diverged && cursor.is_none() {
                match self.replay.machine_at(checkpoint_step) {
                    Ok(machine) => cursor = Some((machine, checkpoint_step)),
                    Err(_) => diverged = true,
                }
            }
            if let Some((machine, at)) = cursor.as_mut() {
                let target = plan.earliest_step();
                match self.replay.block_cache() {
                    Some(cache) if !diverged && *at < target => {
                        let result = self.run_accelerated(machine, cache, target - *at);
                        match result.outcome {
                            RunOutcome::Crashed { .. } => {
                                // The crashing step counts, mirroring the
                                // interpreter loop below (its `step()`
                                // error still advances `*at`).
                                *at += result.steps.max(1);
                                diverged = true;
                            }
                            // Exited before the target: the interpreter
                            // loop would no-op the remaining stopped
                            // steps to the target, so fast-forward.
                            // TimedOut is the budget fence — the walk
                            // arrived exactly at the target.
                            _ => *at = target,
                        }
                    }
                    _ => {
                        while !diverged && *at < target {
                            if machine.step().is_err() {
                                diverged = true;
                            }
                            *at += 1;
                        }
                    }
                }
            }
            if diverged {
                // Forward replay of the golden trace stopped early: the
                // same determinism violation machine_at reports — degrade
                // this plan (and the rest of the neighbourhood beyond the
                // divergence) instead of panicking.
                self.note_plan(plan, FaultClass::ReplayDiverged, false);
                out[k] = Some(FaultClass::ReplayDiverged);
                continue;
            }
            let (machine, _) = cursor.as_ref().expect("cursor initialized above");
            self.telemetry.count(Counter::CowClones, 1);
            let class = self.inject_and_classify(machine.clone(), plan);
            self.note_plan(plan, class, false);
            out[k] = Some(class);
        }
        out.into_iter().map(|class| class.expect("every plan classified")).collect()
    }
}

/// Applies one injection's physical effect to the machine. The program
/// counter in [`Fault::pc`] anchors *address-based* effects (an encoding
/// bit flip corrupts the instruction at that address, wherever control
/// currently is); skip/register/flag effects act on the machine's
/// current state. `Err` short-circuits with the class the failed
/// injection itself produced (e.g. skipping an unreadable instruction).
fn apply_effect(machine: &mut Machine, fault: &Fault) -> Result<(), FaultClass> {
    match fault.effect {
        FaultEffect::SkipInstruction => {
            if machine.skip_instruction().is_err() {
                return Err(FaultClass::Crashed);
            }
        }
        FaultEffect::FlipInstructionBit { byte, bit } => {
            let addr = fault.pc + byte as u64;
            let Some(&current) = machine.peek_bytes(addr, 1).and_then(|b| b.first()) else {
                return Err(FaultClass::Crashed);
            };
            machine.poke_bytes(addr, &[current ^ (1 << bit)]);
        }
        FaultEffect::FlipRegisterBit { reg, bit } => {
            machine.set_reg(reg, machine.reg(reg) ^ (1u64 << bit));
        }
        FaultEffect::FlipFlags { mask } => {
            machine.set_flags(Flags::from_bits(machine.flags().to_bits() ^ u64::from(mask)));
        }
    }
    Ok(())
}

mod sealed {
    pub trait Sealed {}
    impl Sealed for super::Collect {}
    impl Sealed for super::Stream {}
}

/// How [`CampaignSession::run`] consumes classifications. Sealed: the
/// two consumption modes are [`Collect`] and [`Stream`].
pub trait Sink: sealed::Sealed {
    /// What the run returns — one element per model passed to `run`.
    type Output;

    #[doc(hidden)]
    fn drive(session: &CampaignSession, models: &[&dyn FaultModel]) -> Self::Output;
}

/// Materialize every [`FaultResult`]: [`CampaignSession::run`] returns
/// one [`CampaignReport`] per model, results in site order.
#[derive(Debug, Clone, Copy, Default)]
pub struct Collect;

impl Sink for Collect {
    type Output = Vec<CampaignReport>;

    fn drive(session: &CampaignSession, models: &[&dyn FaultModel]) -> Vec<CampaignReport> {
        let sampled = session.sampled_sites();
        // A Collect run materializes every result anyway, so enumerating
        // the plans up front costs the same memory — and lets the one
        // scheduling pass cover exactly the plans, so models whose
        // faults cluster on few sites pay no per-site scheduling
        // overhead. Per model, singleton plans stay in site order,
        // followed by each higher order in canonical enumeration order.
        let pruning = session.pruning_analysis();
        let mut counts = Vec::with_capacity(models.len());
        let mut pruned_orders = Vec::with_capacity(models.len());
        let mut plans: Vec<(&'static str, FaultPlan)> = Vec::new();
        for model in models {
            let before = plans.len();
            let name = model.name();
            let set = enumerate_plans_pruned(*model, &sampled, &session.config.plan, pruning);
            let pruned: u128 = set.pruned_by_order.iter().map(|&(_, n)| n).sum();
            if pruned > 0 {
                session.telemetry.count(Counter::PlansPrunedStatic, pruned as u64);
            }
            pruned_orders.push(set.pruned_by_order);
            plans.extend(set.plans.into_iter().map(|plan| (name, plan)));
            counts.push(plans.len() - before);
        }
        session.telemetry.gauge(Gauge::PlansTotal, plans.len() as u64);
        let classes = session.evaluate_all(&plans);
        let mut rest: Vec<FaultResult> = plans
            .into_iter()
            .zip(classes)
            .map(|((_, plan), class)| FaultResult { plan, class })
            .collect();
        let mut reports = Vec::with_capacity(models.len());
        for ((model, count), pruned_by_order) in models.iter().zip(counts).zip(pruned_orders) {
            let tail = rest.split_off(count);
            let audit_failures = match (&session.analysis, session.config.audit_analysis) {
                (Some(analysis), true) => rest
                    .iter()
                    .filter(|r| r.class != FaultClass::Benign && plan_is_benign(analysis, &r.plan))
                    .cloned()
                    .collect(),
                _ => Vec::new(),
            };
            reports.push(CampaignReport {
                model: model.name(),
                results: rest,
                pruned_by_order,
                audit_failures,
            });
            rest = tail;
        }
        reports
    }
}

/// Fold classifications straight into per-model [`Summary`] counters:
/// [`CampaignSession::run`] returns one [`ModelSummary`] per model,
/// keeping memory at O(sites + shards) no matter how many plans the
/// campaign evaluates — for campaigns too large to keep every
/// [`FaultResult`]. Singleton plans are enumerated per site inside each
/// shard; unbudgeted higher-order plans are visited lazily per
/// first-injection site (the cross-product is never materialized); a
/// sampling budget ([`crate::PlanConfig::budget`]) bounds the one list
/// that is materialized — the drawn sample — which then goes through the
/// bucketed scheduling pass.
#[derive(Debug, Clone, Copy, Default)]
pub struct Stream;

impl Sink for Stream {
    type Output = Vec<ModelSummary>;

    fn drive(session: &CampaignSession, models: &[&dyn FaultModel]) -> Vec<ModelSummary> {
        let sampled = session.sampled_sites();
        let pruning = session.pruning_analysis();
        if let Some(analysis) = pruning {
            // Streamed runs materialize no PlanSet; account the pruned
            // space up front from the counting DP.
            let pruned: u128 = models
                .iter()
                .flat_map(|model| {
                    crate::model::pruned_counts_by_order(
                        *model,
                        &sampled,
                        &session.config.plan,
                        analysis,
                    )
                })
                .map(|(_, n)| n)
                .sum();
            if pruned > 0 {
                session.telemetry.count(Counter::PlansPrunedStatic, pruned as u64);
            }
        }
        let mut summaries = scheduled_fold(
            &sampled,
            session.config.threads,
            session.config.shard,
            vec![Summary::default(); models.len()],
            |mut acc, site| {
                for (m, model) in models.iter().enumerate() {
                    for fault in model.faults_at(site) {
                        if pruning
                            .is_some_and(|a| fault_verdict(a, &fault) == StaticVerdict::Benign)
                        {
                            continue;
                        }
                        acc[m].record(session.evaluate(model.name(), &FaultPlan::single(fault)));
                    }
                }
                acc
            },
            |a, b| a.into_iter().zip(b).map(|(x, y)| x.merge(y)).collect(),
        );
        if session.config.plan.order >= 2 {
            if session.config.plan.budget.is_some() {
                // Budgeted: at most `budget` plans per order survive
                // sampling, so materializing them costs bounded memory
                // and buys the bucketed (warm-checkpoint) schedule.
                let mut counts = Vec::with_capacity(models.len());
                let mut plans: Vec<(&'static str, FaultPlan)> = Vec::new();
                for model in models {
                    let before = plans.len();
                    let higher = crate::model::higher_order_plans(
                        *model,
                        &sampled,
                        &session.config.plan,
                        pruning,
                    );
                    plans.extend(higher.into_iter().map(|plan| (model.name(), plan)));
                    counts.push(plans.len() - before);
                }
                session.telemetry.gauge(Gauge::PlansTotal, plans.len() as u64);
                let mut classes = session.evaluate_all(&plans).into_iter();
                for (m, count) in counts.into_iter().enumerate() {
                    for class in classes.by_ref().take(count) {
                        summaries[m].record(class);
                    }
                }
            } else {
                // Unbudgeted: the exhaustive pair/k-tuple space can be
                // quadratic and larger — fold it lazily, sharding by
                // first-injection site and visiting each plan exactly
                // once, so memory stays O(sites + shards).
                let site_indices: Vec<usize> = (0..sampled.len()).collect();
                for (m, model) in models.iter().enumerate() {
                    let space =
                        crate::model::plan_space(*model, &sampled, &session.config.plan, pruning);
                    let extra = scheduled_fold(
                        &site_indices,
                        session.config.threads,
                        session.config.shard,
                        Summary::default(),
                        |mut acc, &site| {
                            space.for_each_starting_at(
                                session.config.plan.order,
                                site,
                                &mut |plan| {
                                    acc.record(session.evaluate(model.name(), &plan));
                                },
                            );
                            acc
                        },
                        Summary::merge,
                    );
                    summaries[m] = summaries[m].merge(extra);
                }
            }
        }
        models
            .iter()
            .zip(summaries)
            .map(|(model, summary)| ModelSummary { model: model.name(), summary })
            .collect()
    }
}

/// Reads up to [`MAX_INSTR_LEN`] code bytes at `pc` from the executable
/// image (shorter at the end of `.text`).
fn peek_code(exe: &Executable, pc: u64) -> Option<&[u8]> {
    let text = exe.text_range();
    if !text.contains(&pc) {
        return None;
    }
    let available = (text.end - pc).min(MAX_INSTR_LEN as u64) as usize;
    exe.read_bytes(pc, available)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{FlagFlip, InstructionSkip, SingleBitFlip};
    use rr_asm::assemble_and_link;
    use rr_engine::shard::ShardPolicy;
    use rr_isa::InstrKind;
    use rr_workloads::pincheck;

    fn pincheck_session() -> CampaignSession {
        pincheck_session_with(CampaignConfig::default())
    }

    fn pincheck_session_with(config: CampaignConfig) -> CampaignSession {
        let w = pincheck();
        CampaignSession::builder(w.build().unwrap())
            .good_input(&w.good_input[..])
            .bad_input(&w.bad_input[..])
            .config(config)
            .build()
            .unwrap()
    }

    fn run_one(session: &CampaignSession, model: &dyn FaultModel) -> CampaignReport {
        session.run(&[model], Collect).pop().expect("one model in, one report out")
    }

    #[test]
    fn builder_validation_rejects_broken_setups() {
        let w = pincheck();
        let exe = w.build().unwrap();
        // Missing inputs are typed errors.
        assert_eq!(
            CampaignSession::builder(exe.clone()).build().unwrap_err(),
            CampaignError::MissingBadInput
        );
        assert_eq!(
            CampaignSession::builder(exe.clone()).bad_input(&w.bad_input[..]).build().unwrap_err(),
            CampaignError::MissingGoodInput
        );
        // Same input for good and bad → indistinguishable.
        assert_eq!(
            CampaignSession::builder(exe.clone())
                .good_input(&w.good_input[..])
                .bad_input(&w.good_input[..])
                .build()
                .unwrap_err(),
            CampaignError::IndistinguishableBehaviors
        );
        // A crashing program cannot be campaigned.
        let crasher = assemble_and_link("    .global _start\n_start:\n    halt\n").unwrap();
        assert!(matches!(
            CampaignSession::builder(crasher)
                .good_input(&b"a"[..])
                .bad_input(&b"b"[..])
                .build()
                .unwrap_err(),
            CampaignError::GoldenGoodFailed(_)
        ));
        // Every variant renders.
        for err in [CampaignError::MissingBadInput, CampaignError::MissingGoodInput] {
            assert!(!err.to_string().is_empty());
        }
    }

    #[test]
    fn session_owns_its_executable_and_inputs() {
        let session = {
            let w = pincheck();
            // The executable and inputs are moved/copied into the
            // session; nothing borrowed outlives this block.
            CampaignSession::builder(w.build().unwrap())
                .good_input(w.good_input)
                .bad_input(w.bad_input)
                .build()
                .unwrap()
        };
        assert!(session.good_input().is_some());
        assert!(!session.bad_input().is_empty());
        assert!(session.exe().code_size() > 0);
        let report = run_one(&session, &InstructionSkip);
        assert!(report.summary().success > 0);
    }

    #[test]
    fn sites_cover_the_bad_trace() {
        let session = pincheck_session();
        assert_eq!(session.sites().len() as u64, session.golden_bad().steps);
        for (i, site) in session.sites().iter().enumerate() {
            assert_eq!(site.step, i as u64);
        }
    }

    #[test]
    fn unprotected_pincheck_is_skip_vulnerable_at_branches() {
        let session = pincheck_session();
        let report = run_one(&session, &InstructionSkip);
        let summary = report.summary();
        assert!(summary.success > 0, "expected skip vulnerabilities: {summary}");
        assert!(summary.benign > 0, "skips off the critical path are benign");

        // The classic vulnerability: skipping a `jne deny`. The paper
        // reports all vulnerabilities stem from the conditional jumps and
        // the mov/cmp instructions feeding them; at minimum a conditional
        // jump must be among ours.
        let vulnerable_kinds: Vec<InstrKind> = report
            .vulnerabilities()
            .iter()
            .map(|result| {
                session
                    .sites()
                    .iter()
                    .find(|s| s.step == result.fault().step)
                    .expect("vulnerability at a known site")
                    .insn
                    .kind()
            })
            .collect();
        assert!(
            vulnerable_kinds.contains(&InstrKind::CondJump),
            "expected a conditional-jump vulnerability, got {vulnerable_kinds:?}"
        );
    }

    #[test]
    fn bit_flips_produce_crashes_and_successes() {
        let session = pincheck_session();
        let report = run_one(&session, &SingleBitFlip);
        let summary = report.summary();
        assert!(summary.success > 0, "{summary}");
        assert!(summary.crashed > 0, "sparse opcodes must yield crashes: {summary}");
        assert!(summary.benign > 0, "{summary}");
        // Executed + statically-pruned covers the full 8 × len space.
        let space: usize = session.sites().iter().map(|s| s.len * 8).sum();
        assert_eq!(summary.total + report.plans_pruned_static() as usize, space);
    }

    #[test]
    fn thread_counts_and_shard_policies_do_not_change_results() {
        let reference = run_one(&pincheck_session(), &InstructionSkip);
        for threads in [1, 4] {
            for shard in [ShardPolicy::Contiguous, ShardPolicy::Interleaved] {
                let config = CampaignConfig { threads, shard, ..CampaignConfig::default() };
                let report = run_one(&pincheck_session_with(config), &InstructionSkip);
                assert_eq!(report.results, reference.results, "threads={threads} {shard}");
            }
        }
    }

    #[test]
    fn multiple_models_share_one_pass_and_match_solo_runs() {
        let session = pincheck_session();
        let models: [&dyn FaultModel; 3] = [&InstructionSkip, &FlagFlip, &SingleBitFlip];
        let combined = session.run(&models, Collect);
        assert_eq!(combined.len(), 3);
        for (model, combined_report) in models.iter().zip(&combined) {
            let solo = run_one(&session, *model);
            assert_eq!(combined_report.model, solo.model);
            assert_eq!(combined_report.results, solo.results, "{}", solo.model);
        }
        // The streaming sink agrees model-by-model.
        let streamed = session.run(&models, Stream);
        for (report, summary) in combined.iter().zip(&streamed) {
            assert_eq!(report.summary(), summary.summary, "{}", report.model);
            assert_eq!(report.model, summary.model);
        }
    }

    #[test]
    fn naive_session_records_no_snapshots_but_classifies_identically() {
        // The engine choice is a construction-time property: a naive
        // session records no snapshots — and since `run` is the only
        // entry point and always evaluates with the constructed engine,
        // the old footgun (asking a snapshot-less campaign for a
        // checkpointed run, silently replaying from zero) is
        // unrepresentable.
        let naive = pincheck_session_with(CampaignConfig {
            engine: CampaignEngine::Naive,
            ..CampaignConfig::default()
        });
        assert_eq!(naive.engine(), CampaignEngine::Naive);
        assert!(!naive.replay_engine().records_snapshots());
        assert_eq!(naive.replay_engine().checkpoint_count(), 1, "initial state only");
        assert_eq!(naive.replay_footprint().retained_bytes, 0);

        // The engine changes memory and replay cost, never results.
        let checkpointed = pincheck_session();
        assert!(checkpointed.replay_engine().records_snapshots());
        assert!(checkpointed.replay_footprint().checkpoints > 1);
        assert_eq!(
            run_one(&naive, &InstructionSkip).results,
            run_one(&checkpointed, &InstructionSkip).results
        );
    }

    #[test]
    fn streaming_summary_matches_materialized_report() {
        for engine in [CampaignEngine::Naive, CampaignEngine::Checkpointed] {
            let session =
                pincheck_session_with(CampaignConfig { engine, ..CampaignConfig::default() });
            let report = run_one(&session, &FlagFlip);
            let streamed = session.run(&[&FlagFlip as &dyn FaultModel], Stream);
            assert_eq!(streamed.len(), 1);
            assert_eq!(streamed[0].summary, report.summary(), "{engine}");
        }
    }

    #[test]
    fn flag_flips_can_invert_decisions() {
        // Flipping Z right before `jne deny` takes the grant path.
        let report = run_one(&pincheck_session(), &FlagFlip);
        assert!(report.summary().success > 0);
    }

    #[test]
    fn vulnerable_pcs_deduplicate_loop_sites() {
        let session = pincheck_session();
        let report = run_one(&session, &InstructionSkip);
        let pcs = report.vulnerable_pcs();
        assert!(!pcs.is_empty());
        assert!(pcs.len() <= report.vulnerabilities().len());
        for pc in &pcs {
            assert!(session.exe().text_range().contains(pc));
        }
    }

    #[test]
    fn summary_counts_add_up() {
        let session = pincheck_session();
        let report = run_one(&session, &InstructionSkip);
        let s = report.summary();
        assert_eq!(
            s.total,
            s.success + s.benign + s.crashed + s.timed_out + s.corrupted + s.diverged
        );
        assert_eq!(s.total, report.results.len());
        assert_eq!(s.diverged, 0, "golden replays never diverge");
    }

    #[test]
    fn divergent_replay_reports_instead_of_panicking() {
        for engine in [CampaignEngine::Naive, CampaignEngine::Checkpointed] {
            let session =
                pincheck_session_with(CampaignConfig { engine, ..CampaignConfig::default() });
            // A fault whose recorded pc disagrees with the trace models a
            // determinism violation; it must degrade to ReplayDiverged
            // (the seed implementation debug-asserted here and took the
            // whole process down in debug builds).
            let bogus = FaultPlan::single(Fault {
                step: 0,
                pc: 0xDEAD_0000,
                effect: FaultEffect::SkipInstruction,
            });
            assert_eq!(session.evaluate("test", &bogus), FaultClass::ReplayDiverged, "{engine}");
            // Beyond-trace steps likewise degrade gracefully.
            let beyond = FaultPlan::single(Fault {
                step: session.golden_bad().steps + 10,
                pc: 0x1000,
                effect: FaultEffect::SkipInstruction,
            });
            assert_eq!(session.evaluate("test", &beyond), FaultClass::ReplayDiverged, "{engine}");
        }
    }

    #[test]
    fn trusted_golden_good_skips_the_good_run() {
        let w = pincheck();
        let exe = w.build().unwrap();
        let first = CampaignSession::builder(exe.clone())
            .good_input(&w.good_input[..])
            .bad_input(&w.bad_input[..])
            .build()
            .unwrap();
        assert!(!first.reused_golden_good());
        let golden = first.golden_good().expect("golden-pair session has a good run").clone();

        let reusing = CampaignSession::builder(exe)
            .bad_input(&w.bad_input[..])
            .golden_good(golden)
            .build()
            .unwrap();
        assert!(reusing.reused_golden_good());
        assert_eq!(reusing.golden_good(), first.golden_good());
        assert_eq!(
            run_one(&reusing, &InstructionSkip).results,
            run_one(&first, &InstructionSkip).results
        );
    }

    #[test]
    fn seeded_session_reuses_everything_across_an_identity_rewrite() {
        let w = pincheck();
        let exe = w.build().unwrap();
        let first = CampaignSession::builder(exe.clone())
            .good_input(&w.good_input[..])
            .bad_input(&w.bad_input[..])
            .build()
            .unwrap();
        let models: [&dyn FaultModel; 2] = [&InstructionSkip, &FlagFlip];
        let reports = first.run(&models, Collect);
        assert_eq!(first.reuse_stats().sites_reused, 0, "unseeded sessions never reuse");

        // Same binary, nothing changed: every classification carries over
        // and the seeded session executes nothing.
        let seeded = CampaignSession::builder(exe)
            .good_input(&w.good_input[..])
            .bad_input(&w.bad_input[..])
            .seed_from(first.seed(&reports), &rr_disasm::ListingDelta::identity())
            .build()
            .unwrap();
        assert!(seeded.cached_classifications() > 0);
        let again = seeded.run(&models, Collect);
        for (fresh, cached) in reports.iter().zip(&again) {
            assert_eq!(fresh.model, cached.model);
            assert_eq!(fresh.results, cached.results, "{}", fresh.model);
        }
        let stats = seeded.reuse_stats();
        assert!(stats.sites_reused > 0);
        assert_eq!(stats.sites_replayed, 0, "identity rewrite leaves nothing to replay");
        assert!((stats.reuse_percent() - 100.0).abs() < 1e-9);

        // A model the seed never ran is evaluated live — and classifies
        // exactly as in the unseeded session.
        let bitflip = seeded.run(&[&SingleBitFlip as &dyn FaultModel], Collect);
        assert!(seeded.reuse_stats().sites_replayed > 0);
        assert_eq!(bitflip[0].results, first.run(&[&SingleBitFlip], Collect)[0].results);
    }

    #[test]
    fn seeded_session_matches_a_full_campaign_across_a_real_rewrite() {
        // Patch pincheck behaviour-preservingly (insert a nop mid-text),
        // then campaign the rebuilt binary twice: from scratch, and seeded
        // with the original session's classifications through the listing
        // delta. Classifications must be bit-identical, with nonzero
        // reuse.
        let w = pincheck();
        let exe = w.build().unwrap();
        let first = CampaignSession::builder(exe.clone())
            .good_input(&w.good_input[..])
            .bad_input(&w.bad_input[..])
            .build()
            .unwrap();
        let models: [&dyn FaultModel; 2] = [&InstructionSkip, &FlagFlip];
        let reports = first.run(&models, Collect);

        let listing = rr_disasm::disassemble(&exe).unwrap().listing;
        let mut patched = listing.clone();
        // Insert before an instruction the bad-input run demonstrably
        // executes (the mid-trace site), so the delta dirties real trace
        // steps.
        let mid_pc = first.sites()[first.sites().len() / 2].pc;
        let index = patched.find_code(mid_pc).expect("traced pc is in the listing");
        patched.text.insert(
            index,
            rr_disasm::Line::Code {
                orig_addr: None,
                insn: rr_disasm::SymInstr::Plain(rr_isa::Instr::Nop),
            },
        );
        let rebuilt = rr_asm::assemble_and_link(&patched.to_source()).unwrap();
        let delta = rr_disasm::ListingDelta::compute(&listing, &exe, &patched, &rebuilt).unwrap();

        let scratch = CampaignSession::builder(rebuilt.clone())
            .good_input(&w.good_input[..])
            .bad_input(&w.bad_input[..])
            .build()
            .unwrap();
        let seeded = CampaignSession::builder(rebuilt)
            .good_input(&w.good_input[..])
            .bad_input(&w.bad_input[..])
            .seed_from(first.seed(&reports), &delta)
            .build()
            .unwrap();
        let scratch_reports = scratch.run(&models, Collect);
        let seeded_reports = seeded.run(&models, Collect);
        for (fresh, cached) in scratch_reports.iter().zip(&seeded_reports) {
            assert_eq!(fresh.results, cached.results, "{}", fresh.model);
        }
        let stats = seeded.reuse_stats();
        assert!(stats.sites_reused > 0, "{stats}");
        assert!(stats.sites_replayed > 0, "the nop executes, its region must replay: {stats}");
    }

    #[test]
    fn order_two_campaigns_subsume_order_one_and_agree_across_schedulers() {
        use crate::model::{PairPolicy, PlanConfig};
        let order2 = |bucketing, engine, threads| {
            pincheck_session_with(CampaignConfig {
                engine,
                threads,
                bucketing,
                plan: PlanConfig {
                    order: 2,
                    policy: PairPolicy::WithinWindow { max_gap: 6 },
                    ..PlanConfig::default()
                },
                ..CampaignConfig::default()
            })
        };
        let reference = run_one(&order2(false, CampaignEngine::Naive, 1), &InstructionSkip);
        assert!(reference.max_order() == 2, "pairs were enumerated");
        // The order-1 prefix is exactly the singleton campaign.
        let singles = run_one(&pincheck_session(), &InstructionSkip);
        let prefix: Vec<&FaultResult> =
            reference.results.iter().take(singles.results.len()).collect();
        for (single, multi) in singles.results.iter().zip(prefix) {
            assert_eq!(single, multi, "order-1 results are unchanged by the pair space");
        }
        // Bucketed checkpointed evaluation and per-plan evaluation agree,
        // across thread counts and both sinks.
        for bucketing in [false, true] {
            for threads in [1, 4] {
                let session = order2(bucketing, CampaignEngine::Checkpointed, threads);
                let report = run_one(&session, &InstructionSkip);
                assert_eq!(
                    report.results, reference.results,
                    "bucketing={bucketing} threads={threads}"
                );
                let streamed = session.run(&[&InstructionSkip as &dyn FaultModel], Stream);
                assert_eq!(streamed[0].summary, report.summary(), "stream bucketing={bucketing}");
            }
        }
    }

    #[test]
    fn double_faults_change_outcomes_somewhere() {
        use crate::model::{PairPolicy, PlanConfig};
        // Not a tautology: at least one pair must classify differently
        // from both of its legs (two skips compose, they don't shadow).
        let session = pincheck_session_with(CampaignConfig {
            plan: PlanConfig {
                order: 2,
                policy: PairPolicy::WithinWindow { max_gap: 8 },
                ..PlanConfig::default()
            },
            ..CampaignConfig::default()
        });
        let report = run_one(&session, &InstructionSkip);
        let single_class = |step: u64| {
            report
                .results
                .iter()
                .find(|r| r.order() == 1 && r.fault().step == step)
                .map(|r| r.class)
        };
        let composing = report.results.iter().filter(|r| r.order() == 2).any(|pair| {
            let mut legs = pair.plan.iter();
            let (a, b) = (legs.next().unwrap().step, legs.next().unwrap().step);
            single_class(a).is_some_and(|c| c != pair.class)
                && single_class(b).is_some_and(|c| c != pair.class)
        });
        assert!(composing, "some pair must behave unlike either single fault");
    }

    #[test]
    fn custom_oracles_need_no_good_input() {
        use crate::oracle::{CrashTriageOracle, OutputPrefixOracle};
        let w = pincheck();
        let exe = w.build().unwrap();
        // Crash triage traces the bad input only.
        let triage = CampaignSession::builder(exe.clone())
            .bad_input(&w.bad_input[..])
            .oracle(CrashTriageOracle)
            .build()
            .unwrap();
        assert_eq!(triage.oracle().name(), "crash-triage");
        assert!(triage.golden_good().is_none());
        let summary = run_one(&triage, &SingleBitFlip).summary();
        assert!(summary.crashed > 0, "bit flips must crash somewhere: {summary}");
        assert_eq!(summary.success, 0, "crash triage never declares success");

        // An output-prefix goal covers the golden-pair successes on
        // pincheck — behaving "like the good run" implies "printed
        // ACCESS GRANTED" (the prefix oracle may also credit runs that
        // printed the goal and then diverged).
        let prefix = CampaignSession::builder(exe)
            .bad_input(&w.bad_input[..])
            .oracle(OutputPrefixOracle::new(&b"ACCESS GRANTED"[..]))
            .build()
            .unwrap();
        let by_prefix = run_one(&prefix, &InstructionSkip);
        let by_pair = run_one(&pincheck_session(), &InstructionSkip);
        assert!(by_prefix.summary().success >= by_pair.summary().success);
        assert!(by_prefix.vulnerable_pcs().is_superset(&by_pair.vulnerable_pcs()));
    }
}
