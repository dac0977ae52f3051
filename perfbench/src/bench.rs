//! The three workloads: set-up, the timed end-to-end run, the traced
//! per-layer run, and the output checks.

use std::collections::BTreeMap;
use std::fs::File;
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use wsn_channel::link::received_power;
use wsn_phy::ber::{BerModel, EmpiricalCc2420Ber};
use wsn_radio::RadioModel;
use wsn_sim::contention::{AttemptRecord, TransactionRecord};
use wsn_sim::network::{NetworkConfig, TxPowerPolicy};
use wsn_sim::persist::{parse_document, render_compact};
use wsn_sim::sink::{ResultSink, TraceSink, WriteSink};
use wsn_sim::telemetry::{self, MetricSet, TimingSet};
use wsn_sim::{
    fingerprint_scenario, load_scenario, replication_seed, run_channel_sim_into_ws,
    scenario_master_seed, with_workspace, BatchReport, BatchSet, ChannelSimConfig, JournalRecord,
    JournalWriter, NetworkAccumulator, NetworkSimulator, PolicyEngine, ResolvedBer, RunConfig,
    Runner, SavedScenario, Scenario, ScenarioOutcome, ScenarioRecord, ScenarioStatus, SimWorkspace,
    Xoshiro256StarStar,
};
use wsn_units::{DBm, Db, Seconds};

use crate::digest::{digest_jsonl, digest_summary, field, number};
use crate::gen;
use crate::host;
use crate::trace::Tracer;

/// The paper's headline mean node power for the §5 case study, in µW.
const PAPER_POWER_UW: f64 = 211.0;

/// Set-ups per end-to-end run: at least [`MIN_SETUPS`], more while their
/// measured total stays under [`SETUP_BUDGET_S`] (a millisecond set-up
/// needs hundreds of samples for a steady median), at most [`MAX_SETUPS`].
/// `setup_s` is their median.
const MIN_SETUPS: usize = 3;
const MAX_SETUPS: usize = 200;
const SETUP_BUDGET_S: f64 = 0.5;
/// Timed iterations per run, at least, whatever `--seconds` says.
const MIN_TIMED: usize = 2;
/// Traced passes per traced run, at most (each follows an untraced one):
/// enough for a median, and it keeps the spans file of `farm_sweep` near
/// 13 MB.
const MAX_TRACED: usize = 5;
/// Metrics-on / metrics-off pairs for `telemetry.overhead_pct`.
const TELEMETRY_PAIRS: usize = 2;

/// Peak resident bytes per node of `dense_1m`, measured as VmHWM of a
/// process that ran only that workload (1,708 MiB at 10⁶ nodes; 2-CPU
/// Xeon, 16 GB, release build). The memory guard refuses to run when less than
/// twice this is available.
const DENSE_BYTES_PER_NODE: u64 = 1_791;

/// A named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// A few thousand small open-loop scenarios through the farm.
    FarmSweep,
    /// One 10⁶-node channel.
    Dense1m,
    /// Closed-loop policy scenarios through the farm.
    PolicyRounds,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::FarmSweep,
        Workload::Dense1m,
        Workload::PolicyRounds,
    ];

    /// The CLI / `BENCHMARK.json` name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::FarmSweep => "farm_sweep",
            Workload::Dense1m => "dense_1m",
            Workload::PolicyRounds => "policy_rounds",
        }
    }

    /// Parses a CLI name.
    pub fn parse(name: &str) -> Option<Self> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// How much input a workload generates. [`Size::FULL`] is the benchmark;
/// [`Size::TINY`] keeps the smoke tests fast.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Size {
    /// Scenarios in the `farm_sweep` manifest.
    pub farm_scenarios: usize,
    /// Nodes on the `dense_1m` channel.
    pub dense_nodes: usize,
    /// Closed-loop entries in the `policy_rounds` manifest.
    pub policy_entries: usize,
    /// Round budget of every `policy_rounds` entry (static entries stop
    /// after their first, stable round).
    pub policy_rounds: u32,
}

impl Size {
    /// The benchmark's sizes.
    pub const FULL: Size = Size {
        farm_scenarios: 3_000,
        dense_nodes: 1_000_000,
        policy_entries: 27,
        policy_rounds: 16,
    };
    /// Smoke-test sizes.
    #[cfg(test)]
    pub const TINY: Size = Size {
        farm_scenarios: 13,
        dense_nodes: 2_000,
        policy_entries: 3,
        policy_rounds: 3,
    };
}

/// What a run needs besides its workload.
#[derive(Debug)]
pub struct Ctx {
    /// Scratch directory for generated inputs and outputs.
    pub work: PathBuf,
    /// Workload seed.
    pub seed: u64,
    /// Input size.
    pub size: Size,
    /// Measurement time for the timed (or traced) loop.
    pub seconds: Duration,
    /// The worker pool.
    pub runner: Runner,
    /// The digest recorded for this workload and seed, if any.
    pub expected: Option<u64>,
}

/// Why a run did not happen.
#[derive(Debug)]
pub enum BenchError {
    /// The host cannot run the workload without swapping.
    Skipped(String),
    /// Input generation, loading or the farm itself failed.
    Failed(String),
}

impl std::fmt::Display for BenchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BenchError::Skipped(why) => write!(f, "skipped: {why}"),
            BenchError::Failed(why) => write!(f, "failed: {why}"),
        }
    }
}

fn io_fail(context: &str) -> impl FnOnce(io::Error) -> BenchError + '_ {
    move |e| BenchError::Failed(format!("{context}: {e}"))
}

/// A measured value with its unit.
pub type Metrics = Vec<(&'static str, f64, &'static str)>;

/// The outcome of one benchmark invocation.
#[derive(Debug)]
pub struct Outcome {
    /// Records (farm) or runs (dense) produced and checked.
    pub attempted: u64,
    /// Those that were not `ok` or did not reproduce the digest.
    pub failed: u64,
    /// The reported metrics.
    pub metrics: Metrics,
    /// Deterministic telemetry counts of one pass over the input.
    pub work: MetricSet,
    /// The output digest every pass reproduced (the first one seen).
    pub digest: u64,
    /// |§5 record power − 211 µW| / 211 µW in percent (`farm_sweep`).
    pub paper_gap_pct: Option<f64>,
}

// ---------------------------------------------------------------------------
// Inputs and one pass over them
// ---------------------------------------------------------------------------

/// A workload's prepared input.
enum Input {
    Farm {
        dir: PathBuf,
        set: BatchSet,
    },
    Dense {
        config: Box<NetworkConfig>,
        ber: EmpiricalCc2420Ber,
    },
}

/// What one pass produced, for the checks.
struct Pass {
    wall: f64,
    records: u64,
    bad_records: u64,
    digest: u64,
    output: String,
}

/// The `dense_1m` channel: the scale ladder's shape — 120 B payloads,
/// λ = 0.4, a 55–95 dB loss ramp under channel inversion.
fn dense_config(seed: u64, nodes: usize, superframes: u32) -> NetworkConfig {
    let mut channel = ChannelSimConfig::figure6(120, 0.4, seed);
    channel.nodes = nodes;
    channel.superframes = superframes;
    NetworkConfig {
        channel,
        radio: RadioModel::cc2420(),
        path_losses: (0..nodes)
            .map(|i| Db::new(55.0 + 40.0 * (i % 997) as f64 / 997.0))
            .collect(),
        tx_policy: TxPowerPolicy::ChannelInversion {
            target_rx: DBm::new(-88.0),
        },
        coordinator_tx: DBm::new(0.0),
        wakeup_margin: Seconds::from_millis(1.0),
        corrupt_probs: None,
    }
}

/// Refuses `dense_1m` when the host has less than twice its measured
/// footprint available.
fn memory_guard(nodes: usize) -> Result<(), BenchError> {
    let need = DENSE_BYTES_PER_NODE * nodes as u64;
    match host::meminfo_kb("MemAvailable:") {
        Some(kb) if kb * 1024 < 2 * need => Err(BenchError::Skipped(format!(
            "dense_1m needs ~{} MiB and twice that free; MemAvailable is {} MiB",
            need >> 20,
            kb >> 10
        ))),
        _ => Ok(()),
    }
}

/// The workload's scratch directory, emptied: what earlier runs left
/// behind is deleted here, outside any timed section.
fn fresh_dir(wl: Workload, ctx: &Ctx) -> Result<PathBuf, BenchError> {
    let dir = ctx.work.join(wl.name());
    if dir.exists() {
        std::fs::remove_dir_all(&dir).map_err(io_fail("clearing scratch"))?;
    }
    std::fs::create_dir_all(&dir).map_err(io_fail("creating scratch"))?;
    settle(&dir)?;
    Ok(dir)
}

/// Commits the filesystem's pending metadata and the data it orders
/// (ext4 `data=ordered`), so the next timed section does not pay for
/// earlier writes and deletions.
fn settle(dir: &Path) -> Result<(), BenchError> {
    File::open(dir)
        .and_then(|d| d.sync_all())
        .map_err(io_fail("syncing scratch"))
}

/// Prepares the input and returns it with its set-up time.
///
/// The set-up time of a farm workload is generation and rendering plus
/// `BatchSet::load_manifest`; the file writes between the two are left
/// out. On a shared virtual disk a burst of a few thousand file creations
/// takes either ~0.05 s or ~0.5–1 s, and that noise would swamp what the
/// program itself costs here.
fn setup(wl: Workload, ctx: &Ctx) -> Result<(Input, f64), BenchError> {
    let t0 = Instant::now();
    match wl {
        Workload::FarmSweep | Workload::PolicyRounds => {
            let inputs = if wl == Workload::FarmSweep {
                gen::farm_sweep(ctx.seed, ctx.size.farm_scenarios)
            } else {
                gen::policy_rounds(ctx.seed, ctx.size.policy_entries, ctx.size.policy_rounds)
            };
            let files = gen::render_inputs(ctx.seed, &inputs).map_err(BenchError::Failed)?;
            let generate_s = t0.elapsed().as_secs_f64();
            let dir = ctx.work.join(wl.name());
            let inputs_dir = dir.join("inputs");
            gen::write_files(&inputs_dir, &files).map_err(io_fail("writing inputs"))?;
            settle(&inputs_dir)?;
            let t1 = Instant::now();
            let set = BatchSet::load_manifest(&inputs_dir.join(gen::MANIFEST))
                .map_err(|e| BenchError::Failed(format!("loading manifest: {e}")))?;
            let setup_s = generate_s + t1.elapsed().as_secs_f64();
            Ok((Input::Farm { dir, set }, setup_s))
        }
        Workload::Dense1m => {
            memory_guard(ctx.size.dense_nodes)?;
            // Start cold, so every set-up pays the same allocations.
            with_workspace(|ws| *ws = SimWorkspace::new());
            let config = dense_config(ctx.seed, ctx.size.dense_nodes, 4);
            let ber = EmpiricalCc2420Ber::paper();
            // Warm the thread's workspace: the shortest legal horizon on
            // the same channel allocates the ring and every per-node array.
            let mut warm = config.clone();
            warm.channel.superframes = 2;
            NetworkSimulator::new(warm).run_accumulate(&ber);
            let input = Input::Dense {
                config: Box::new(config),
                ber,
            };
            Ok((input, t0.elapsed().as_secs_f64()))
        }
    }
}

fn run_farm(
    ctx: &Ctx,
    dir: &Path,
    set: &BatchSet,
    metrics: Option<PathBuf>,
) -> Result<Pass, BenchError> {
    let out_path = dir.join("out.jsonl");
    let mut sink = WriteSink::new(File::create(&out_path).map_err(io_fail("creating output"))?);
    let config = RunConfig {
        journal: Some(dir.join("journal.jsonl")),
        metrics,
        ..RunConfig::default()
    };
    let t0 = Instant::now();
    let report = set
        .run_with(&ctx.runner, &mut sink, &config)
        .map_err(|e| BenchError::Failed(format!("farm: {e}")))?;
    let wall = t0.elapsed().as_secs_f64();
    drop(sink);
    let output = std::fs::read_to_string(&out_path).map_err(io_fail("reading output"))?;
    let records = set.entries().len() as u64;
    let ok = report.records.iter().filter(|r| r.status.is_ok()).count() as u64;
    // A missing record or aggregate line counts against the run too.
    let complete =
        report.records.len() as u64 == records && output.lines().count() as u64 == records + 1;
    Ok(Pass {
        wall,
        records,
        bad_records: if complete { records - ok } else { records },
        digest: digest_jsonl(&output),
        output,
    })
}

/// Seals, checks and digests one `dense_1m` run that took `wall` seconds.
fn dense_pass(wall: f64, mut acc: NetworkAccumulator, events: u64) -> Pass {
    acc.seal_replication();
    let summary = acc.summary();
    let sane = events > 0
        && summary.transactions > 0
        && summary.mean_node_power.microwatts().is_finite()
        && summary.mean_node_power.microwatts() > 0.0;
    Pass {
        wall,
        records: 1,
        bad_records: u64::from(!sane),
        digest: digest_summary(&summary),
        output: String::new(),
    }
}

fn run_once(ctx: &Ctx, input: &Input, metrics: Option<PathBuf>) -> Result<Pass, BenchError> {
    match input {
        Input::Farm { dir, set } => run_farm(ctx, dir, set, metrics),
        Input::Dense { config, ber } => {
            let sim = NetworkSimulator::new((**config).clone());
            let t0 = Instant::now();
            let (acc, events) = sim.run_accumulate_counted(ber);
            Ok(dense_pass(t0.elapsed().as_secs_f64(), acc, events))
        }
    }
}

/// One pass with telemetry on, its timings discarded: the deterministic
/// work counts of the input.
fn counting_pass(ctx: &Ctx, input: &Input) -> Result<(Pass, MetricSet, TimingSet), BenchError> {
    telemetry::reset();
    telemetry::set_enabled(true);
    let pass = run_once(ctx, input, None);
    telemetry::set_enabled(false);
    let counts = (telemetry::snapshot(), telemetry::timing_snapshot());
    telemetry::reset();
    Ok((pass?, counts.0, counts.1))
}

/// Holds every pass to the first digest seen and to the recorded one.
struct Checker {
    expected: Option<u64>,
    first: Option<u64>,
    attempted: u64,
    failed: u64,
}

impl Checker {
    fn new(expected: Option<u64>) -> Self {
        Checker {
            expected,
            first: None,
            attempted: 0,
            failed: 0,
        }
    }

    fn check(&mut self, records: u64, bad_records: u64, digest: u64) {
        let first = *self.first.get_or_insert(digest);
        let reproduced = digest == first && self.expected.is_none_or(|e| e == digest);
        self.attempted += records;
        self.failed += if reproduced { bad_records } else { records };
    }

    fn pass(&mut self, pass: &Pass) {
        self.check(pass.records, pass.bad_records, pass.digest);
    }
}

/// The §5 record's mean power against the paper's 211 µW, in percent.
fn paper_gap_pct(output: &str) -> Option<f64> {
    output.lines().find_map(|line| {
        let node = parse_document(line).ok()?;
        match field(&node, "scenario")?.value {
            wsn_sim::persist::Value::Str(ref s) if s == gen::CASE_STUDY_NAME => {}
            _ => return None,
        }
        let power = number(field(field(&node, "overall")?, "power_uw")?)?;
        Some((power - PAPER_POWER_UW).abs() / PAPER_POWER_UW * 100.0)
    })
}

fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        0.0
    } else if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

fn peak_rss_mb() -> f64 {
    host::status_kb("VmHWM:").unwrap_or(0) as f64 / 1024.0
}

// ---------------------------------------------------------------------------
// End-to-end run (tracing off)
// ---------------------------------------------------------------------------

/// The timed run: set up several times, count the work once with
/// telemetry on, then time whole passes for `ctx.seconds` with telemetry
/// off.
pub fn end_to_end(wl: Workload, ctx: &Ctx) -> Result<Outcome, BenchError> {
    fresh_dir(wl, ctx)?;
    let mut setup_times: Vec<f64> = Vec::new();
    let mut input = None;
    while setup_times.len() < MIN_SETUPS
        || (setup_times.len() < MAX_SETUPS && setup_times.iter().sum::<f64>() < SETUP_BUDGET_S)
    {
        drop(input.take());
        let (prepared, setup_s) = setup(wl, ctx)?;
        input = Some(prepared);
        setup_times.push(setup_s);
    }
    let input = input.expect("at least one set-up ran");

    let mut checker = Checker::new(ctx.expected);
    let (first, work, _) = counting_pass(ctx, &input)?;
    checker.pass(&first);
    let paper_gap = (wl == Workload::FarmSweep)
        .then(|| paper_gap_pct(&first.output))
        .flatten();

    let mut walls = Vec::new();
    let t0 = Instant::now();
    while walls.len() < MIN_TIMED || t0.elapsed() < ctx.seconds {
        let pass = run_once(ctx, &input, None)?;
        checker.pass(&pass);
        walls.push(pass.wall);
    }
    let wall_s = median(&walls);
    let events = work.engine.events as f64;
    Ok(Outcome {
        attempted: checker.attempted,
        failed: checker.failed,
        metrics: vec![
            ("wall_s", wall_s, "s"),
            ("events_per_s", events / wall_s, "1/s"),
            ("setup_s", median(&setup_times), "s"),
            ("peak_rss_mb", peak_rss_mb(), "MiB"),
        ],
        work,
        digest: checker.first.unwrap_or(0),
        paper_gap_pct: paper_gap,
    })
}

// ---------------------------------------------------------------------------
// Traced run (per-layer metrics)
// ---------------------------------------------------------------------------

/// Span-derived layer times of one traced pass.
type Layers = BTreeMap<&'static str, f64>;

/// Runner occupancy inputs: Σ job busy and Σ map wall, seconds.
#[derive(Debug, Default, Clone, Copy)]
struct Busy {
    jobs_s: f64,
    maps_s: f64,
}

/// The farm's pipeline, called step by step through the public API in
/// `BatchSet::run_with`'s order, each layer call inside a span. Its output
/// must digest like the farm's own.
fn traced_farm_pass(
    ctx: &Ctx,
    dir: &Path,
    set: &BatchSet,
    t: &mut Tracer,
) -> Result<(Pass, Busy), BenchError> {
    let runner = &ctx.runner;
    // Open-loop jobs are timed here; a policy round's job and map walls
    // come from its `PolicyTrace`.
    let mut busy = Busy::default();

    // Set-up side: the parse load_manifest pays.
    let setup = t.enter("setup");
    let mut saved: Vec<SavedScenario> = Vec::with_capacity(set.entries().len());
    for entry in set.entries() {
        let text = std::fs::read_to_string(&entry.path).map_err(io_fail("reading scenario"))?;
        let s = t.time("persist.parse", || load_scenario(&text));
        saved.push(s.map_err(|e| BenchError::Failed(e.to_string()))?);
    }
    t.exit(setup);

    let out_path = dir.join("traced.jsonl");
    let mut sink = WriteSink::new(File::create(&out_path).map_err(io_fail("creating output"))?);
    let batch = t.enter("batch");
    let t_batch = Instant::now();
    let seed = set.batch_seed();
    let scenarios: Vec<Scenario> = saved
        .iter()
        .map(|s| {
            let mut scenario = s.scenario.clone();
            if let Some(seed) = seed {
                scenario.seed = scenario_master_seed(seed, &scenario.name);
            }
            scenario
        })
        .collect();
    let fingerprints: Vec<String> = scenarios
        .iter()
        .zip(&saved)
        .map(|(scenario, s)| {
            let effective = SavedScenario {
                scenario: scenario.clone(),
                policy: s.policy,
            };
            t.time("persist.fingerprint", || fingerprint_scenario(&effective))
        })
        .collect();
    let mut journal = JournalWriter::create(&dir.join("traced-journal.jsonl"))
        .map_err(|e| BenchError::Failed(e.to_string()))?;

    let wave_target = runner.threads().max(1) * 4;
    let mut records: Vec<ScenarioRecord> = Vec::new();
    let mut jobs_run = 0usize;
    let mut i = 0usize;
    while i < saved.len() {
        let mut wave_records = Vec::new();
        if let Some(choice) = saved[i].policy {
            let scenario = &scenarios[i];
            let span = t.enter("policy.run");
            let t0 = Instant::now();
            let mut policy = choice.build();
            let trace = PolicyEngine::new(scenario.clone())
                .with_rounds(choice.rounds() as usize)
                .run(runner, &mut *policy);
            let job_ms = t0.elapsed().as_secs_f64() * 1e3;
            t.exit(span);
            for round in &trace.rounds {
                busy.jobs_s += round.channel_wall_ms.iter().sum::<f64>() / 1e3;
                busy.maps_s += round.wall_ms / 1e3;
            }
            let rounds_run = trace.rounds.len();
            jobs_run += rounds_run * scenario.channels * scenario.replications.max(1) as usize;
            let outcome = trace.rounds.into_iter().last().map(|r| r.outcome);
            wave_records.push(ScenarioRecord {
                name: scenario.name.clone(),
                seed: scenario.seed,
                fingerprint: fingerprints[i].clone(),
                status: ScenarioStatus::Ok,
                attempts: 1,
                channels: scenario.channels,
                outcome,
                policy: Some((choice, rounds_run)),
                job_ms,
            });
            i += 1;
        } else {
            let mut wave = Vec::new();
            let mut wave_jobs = 0usize;
            while i < saved.len() && saved[i].policy.is_none() {
                let s = &scenarios[i];
                wave.push(i);
                wave_jobs += s.channels * s.replications.max(1) as usize;
                i += 1;
                if wave_jobs >= wave_target {
                    break;
                }
            }
            let preps: Vec<(Vec<NetworkConfig>, Vec<ResolvedBer>)> = wave
                .iter()
                .map(|&idx| {
                    let scenario = &scenarios[idx];
                    t.time("scenario.compile", || {
                        let configs = scenario.compile();
                        let bers = (0..configs.len())
                            .map(|c| scenario.channel_ber(c).model())
                            .collect();
                        (configs, bers)
                    })
                })
                .collect();
            let jobs: Vec<(usize, usize, u64)> = preps
                .iter()
                .enumerate()
                .flat_map(|(p, (configs, _))| {
                    let reps = scenarios[wave[p]].replications.max(1) as u64;
                    (0..configs.len()).flat_map(move |c| (0..reps).map(move |r| (p, c, r)))
                })
                .collect();
            let map = t.enter("runner.map");
            let t_map = Instant::now();
            let results = runner
                .map_catching(&jobs, |_, &(p, c, r)| {
                    let start = Instant::now();
                    let mut cfg = preps[p].0[c].clone();
                    cfg.channel.seed = replication_seed(cfg.channel.seed, r);
                    let acc = NetworkSimulator::new(cfg).run_accumulate(&preps[p].1[c]);
                    (acc, start, Instant::now())
                })
                .into_iter()
                .collect::<Result<Vec<_>, _>>()
                .map_err(|p| BenchError::Failed(format!("job panicked: {}", p.message)))?;
            busy.maps_s += t_map.elapsed().as_secs_f64();
            for (_, start, end) in &results {
                t.record("runner.job", *start, *end);
                busy.jobs_s += end.duration_since(*start).as_secs_f64();
            }
            t.exit(map);
            jobs_run += jobs.len();

            let mut results = results.into_iter();
            for (p, (configs, _)) in preps.iter().enumerate() {
                let scenario = &scenarios[wave[p]];
                let mut job_ms = 0.0;
                let accs: Vec<Vec<NetworkAccumulator>> = (0..configs.len())
                    .map(|_| {
                        (0..scenario.replications.max(1))
                            .map(|_| {
                                let (acc, start, end) = results.next().expect("one result per job");
                                job_ms += end.duration_since(start).as_secs_f64() * 1e3;
                                acc
                            })
                            .collect()
                    })
                    .collect();
                let outcome = t.time("scenario.reduce", || {
                    let mut outcome = ScenarioOutcome::reduce(scenario.name.clone(), &accs);
                    outcome.gts_denied = configs.iter().map(|c| c.channel.cfp.gts_denied).collect();
                    outcome
                });
                wave_records.push(ScenarioRecord {
                    name: scenario.name.clone(),
                    seed: scenario.seed,
                    fingerprint: fingerprints[wave[p]].clone(),
                    status: ScenarioStatus::Ok,
                    attempts: 1,
                    channels: scenario.channels,
                    outcome: Some(outcome),
                    policy: None,
                    job_ms,
                });
            }
        }
        for record in wave_records {
            let line = t.time("persist.render", || render_compact(&record.to_json()));
            t.time("sink.write", || sink.emit(&line))
                .map_err(io_fail("writing record"))?;
            let entry = JournalRecord {
                scenario: record.name.clone(),
                fingerprint: record.fingerprint.clone(),
                status: record.status.as_str().to_string(),
                attempts: u64::from(record.attempts),
                elapsed_ms: record.job_ms,
            };
            t.time("journal.append", || journal.append(&entry))
                .map_err(|e| BenchError::Failed(e.to_string()))?;
            records.push(record);
        }
    }
    let report = BatchReport {
        records,
        skipped: 0,
        strict_aborted: false,
        wall_ms: t_batch.elapsed().as_secs_f64() * 1e3,
        jobs: jobs_run,
    };
    let line = t.time("persist.render", || {
        render_compact(&report.aggregate_json())
    });
    t.time("sink.write", || sink.emit(&line).and_then(|_| sink.done()))
        .map_err(io_fail("writing aggregate"))?;
    t.exit(batch);
    let wall = t_batch.elapsed().as_secs_f64();
    drop(sink);

    let output = std::fs::read_to_string(&out_path).map_err(io_fail("reading output"))?;
    let n = report.records.len() as u64;
    let ok = report.records.iter().filter(|r| r.status.is_ok()).count() as u64;
    Ok((
        Pass {
            wall,
            records: n,
            bad_records: n - ok,
            digest: digest_jsonl(&output),
            output,
        },
        busy,
    ))
}

fn traced_dense_pass(config: &NetworkConfig, ber: &EmpiricalCc2420Ber, t: &mut Tracer) -> Pass {
    let sim = NetworkSimulator::new(config.clone());
    let root = t.enter("dense");
    let t0 = Instant::now();
    let (acc, events) = t.time("network.run", || sim.run_accumulate_counted(ber));
    let wall = t0.elapsed().as_secs_f64();
    t.exit(root);
    dense_pass(wall, acc, events)
}

/// A sink that counts and drops: the engine with no accounting behind it.
#[derive(Debug, Default)]
struct CountingSink {
    attempts: u64,
    transactions: u64,
}

impl TraceSink for CountingSink {
    fn on_attempt(&mut self, _: &AttemptRecord) {
        self.attempts += 1;
    }
    fn on_transaction(&mut self, _: &TransactionRecord) {
        self.transactions += 1;
    }
}

/// Per-node packet-or-ACK corruption probabilities, computed from the
/// public PHY/radio API the way the network simulator derives them (the
/// ACK exposes 7 octets before the receiver locks).
fn corruption_probs<B: BerModel>(cfg: &NetworkConfig, ber: &B) -> Vec<f64> {
    if let Some(cached) = &cfg.corrupt_probs {
        return cached.to_vec();
    }
    let levels = cfg.tx_policy.resolve(&cfg.path_losses);
    cfg.path_losses
        .iter()
        .zip(levels)
        .map(|(&loss, level)| {
            let p_rx = received_power(level.output_power(), loss);
            let pr_packet = ber
                .packet_error_probability(p_rx, cfg.channel.packet)
                .value();
            let p_ack = received_power(cfg.coordinator_tx, loss);
            let pr_bit = ber.bit_error_probability(p_ack).value();
            let pr_ack = 1.0 - (1.0 - pr_bit).powf(56.0);
            1.0 - (1.0 - pr_packet) * (1.0 - pr_ack)
        })
        .collect()
}

/// Serial engine-only (`contention.engine` spans) and full-network
/// (`network.engine` spans) passes over `jobs`; returns the events each
/// pass processed.
fn engine_passes(jobs: &[(NetworkConfig, ResolvedBer)], t: &mut Tracer) -> (u64, u64) {
    let root = t.enter("engine");
    let (mut engine_events, mut network_events) = (0, 0);
    for (cfg, ber) in jobs {
        let probs = corruption_probs(cfg, ber);
        let timings = cfg.channel.timings();
        // Same noise stream derivation as the network simulator, so both
        // passes process the same events.
        let mut noise = Xoshiro256StarStar::seed_from_u64(cfg.channel.seed ^ 0x5EED_CAFE_F00D);
        let mut sink = CountingSink::default();
        engine_events += t.time("contention.engine", || {
            with_workspace(|ws| {
                run_channel_sim_into_ws(
                    &cfg.channel,
                    &timings,
                    |node| noise.bernoulli(probs[node as usize]),
                    &mut sink,
                    ws,
                )
            })
        });
        std::hint::black_box(sink);
    }
    for (cfg, ber) in jobs {
        let sim = NetworkSimulator::new(cfg.clone());
        let (acc, events) = t.time("network.engine", || sim.run_accumulate_counted(ber));
        network_events += events;
        std::hint::black_box(acc);
    }
    t.exit(root);
    (engine_events, network_events)
}

/// Every (channel config, BER) job of one pass over the input, seeds
/// resolved as the farm resolves them.
fn engine_jobs(input: &Input) -> Vec<(NetworkConfig, ResolvedBer)> {
    match input {
        Input::Dense { config, ber } => vec![((**config).clone(), ResolvedBer::Empirical(*ber))],
        Input::Farm { set, .. } => set
            .entries()
            .iter()
            .flat_map(|entry| {
                let scenario = set.effective_scenario(entry);
                let configs = scenario.compile();
                let reps = scenario.replications.max(1) as u64;
                configs
                    .into_iter()
                    .enumerate()
                    .flat_map(move |(c, cfg)| {
                        let ber = scenario.channel_ber(c).model();
                        (0..reps).map(move |r| {
                            let mut cfg = cfg.clone();
                            cfg.channel.seed = replication_seed(cfg.channel.seed, r);
                            (cfg, ber)
                        })
                    })
                    .collect::<Vec<_>>()
            })
            .collect(),
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The traced run: per-layer metrics from the benchmark's own spans,
/// work counts from a telemetry pass, and the cost of tracing itself.
pub fn traced(wl: Workload, ctx: &Ctx, spans_out: &Path) -> Result<Outcome, BenchError> {
    fresh_dir(wl, ctx)?;
    let rss_before_kb = host::status_kb("VmRSS:").unwrap_or(0);
    let (input, _) = setup(wl, ctx)?;
    let mut checker = Checker::new(ctx.expected);

    // Work counts, timings discarded; this pass also warms what a first
    // pass pays once (thread stacks, allocator arenas, output files).
    let (count_pass, work, timing) = counting_pass(ctx, &input)?;
    checker.pass(&count_pass);

    let paper_gap = (wl == Workload::FarmSweep)
        .then(|| paper_gap_pct(&count_pass.output))
        .flatten();
    // The counting pass ran the whole input, so the peak it left is the
    // workload's footprint.
    let bytes_per_node = match &input {
        Input::Dense { config, .. } => {
            let peak_kb = host::status_kb("VmHWM:").unwrap_or(0);
            peak_kb.saturating_sub(rss_before_kb) as f64 * 1024.0 / config.channel.nodes as f64
        }
        Input::Farm { .. } => 0.0,
    };

    // Untraced and traced passes alternate, so both see the same host
    // conditions and their difference is the cost of tracing.
    let mut untraced = Vec::new();
    let mut tracers = Vec::new();
    let mut passes: Vec<Layers> = Vec::new();
    let t0 = Instant::now();
    while passes.is_empty() || (passes.len() < MAX_TRACED && t0.elapsed() < ctx.seconds) {
        let pass = run_once(ctx, &input, None)?;
        checker.pass(&pass);
        untraced.push(pass.wall);

        let mut t = Tracer::new(wl.name());
        let mut layers = Layers::new();
        let (pass, busy, root) = match &input {
            Input::Farm { dir, set } => {
                let (pass, busy) = traced_farm_pass(ctx, dir, set, &mut t)?;
                (pass, busy, "batch")
            }
            Input::Dense { config, ber } => {
                let pass = traced_dense_pass(config, ber, &mut t);
                (pass, Busy::default(), "dense")
            }
        };
        checker.pass(&pass);
        let threads = ctx.runner.threads() as f64;
        let us = |name: &str| t.total_s(name) * 1e6;
        layers.insert("persist.parse_us", us("persist.parse"));
        layers.insert("persist.fingerprint_us", us("persist.fingerprint"));
        layers.insert("persist.render_us", us("persist.render"));
        layers.insert("scenario.compile_us", us("scenario.compile"));
        layers.insert("scenario.reduce_us", us("scenario.reduce"));
        layers.insert("journal.append_ms", t.total_s("journal.append") * 1e3);
        layers.insert("sink.write_us", us("sink.write"));
        layers.insert("batch.self_s", t.self_s("batch"));
        layers.insert(
            "runner.occupancy",
            ratio(busy.jobs_s, threads * busy.maps_s),
        );
        layers.insert(
            "runner.barrier_wait_ms",
            (threads * busy.maps_s - busy.jobs_s).max(0.0) * 1e3,
        );
        layers.insert("trace.traced_s", t.total_s(root));
        layers.insert("policy.run_s", t.total_s("policy.run"));
        layers.insert("network.run_s", t.total_s("network.run"));
        passes.push(layers);
        tracers.push(t);
    }

    let layer = |name: &str| median(&passes.iter().map(|p| p[name]).collect::<Vec<_>>());
    let untraced_s = median(&untraced);

    // Engine-only and network-only passes over the same jobs, serially.
    let mut t = Tracer::new(wl.name());
    let jobs = engine_jobs(&input);
    let (engine_events, network_events) = engine_passes(&jobs, &mut t);
    drop(jobs);
    let engine_ns = ratio(t.total_s("contention.engine") * 1e9, engine_events as f64);
    let network_ns = ratio(t.total_s("network.engine") * 1e9, network_events as f64);
    tracers.push(t);

    // What a `--metrics` user pays: farm_sweep with RunConfig::metrics set
    // against unset, alternated.
    let mut telemetry_overhead = 0.0;
    if let (Workload::FarmSweep, Input::Farm { dir, set }) = (wl, &input) {
        let (mut on, mut off) = (Vec::new(), Vec::new());
        for _ in 0..TELEMETRY_PAIRS {
            let pass = run_farm(ctx, dir, set, None)?;
            checker.pass(&pass);
            off.push(pass.wall);
            telemetry::reset();
            let pass = run_farm(ctx, dir, set, Some(dir.join("metrics.jsonl")));
            telemetry::set_enabled(false);
            telemetry::reset();
            let pass = pass?;
            checker.pass(&pass);
            on.push(pass.wall);
        }
        telemetry_overhead = (median(&on) / median(&off) - 1.0) * 100.0;
    }

    // Sharded accounting against serial on the dense channel, which must
    // agree bit for bit.
    let mut shard2_speedup = 0.0;
    if let Input::Dense { config, ber } = &input {
        let sim = NetworkSimulator::new((**config).clone());
        let serial_s = layer("network.run_s");
        let t0 = Instant::now();
        let mut acc = sim.run_accumulate_sharded(ber, 2);
        let sharded_s = t0.elapsed().as_secs_f64();
        acc.seal_replication();
        // Held to the serial digest like every other pass.
        checker.check(1, 0, digest_summary(&acc.summary()));
        shard2_speedup = serial_s / sharded_s;
    }

    let mut spans_file =
        io::BufWriter::new(File::create(spans_out).map_err(io_fail("creating spans"))?);
    for t in &tracers {
        t.write_jsonl(&mut spans_file)
            .map_err(io_fail("writing spans"))?;
    }
    spans_file.flush().map_err(io_fail("writing spans"))?;

    let e = &work.engine;
    let attempts = e.attempts_delivered
        + e.attempts_collided
        + e.attempts_corrupted
        + e.attempts_access_failure;
    let traced_s = layer("trace.traced_s");
    let rounds = work.policy.rounds as f64;
    let metrics: Metrics = vec![
        ("persist.parse_us", layer("persist.parse_us"), "us"),
        (
            "persist.fingerprint_us",
            layer("persist.fingerprint_us"),
            "us",
        ),
        ("persist.render_us", layer("persist.render_us"), "us"),
        ("scenario.compile_us", layer("scenario.compile_us"), "us"),
        ("scenario.reduce_us", layer("scenario.reduce_us"), "us"),
        ("journal.append_ms", layer("journal.append_ms"), "ms"),
        (
            "journal.records",
            (work.farm.ok + work.farm.failed + work.farm.timeout) as f64,
            "count",
        ),
        ("sink.write_us", layer("sink.write_us"), "us"),
        ("sink.bytes", count_pass.output.len() as f64, "bytes"),
        ("batch.self_s", layer("batch.self_s"), "s"),
        ("batch.waves", timing.waves as f64, "count"),
        ("runner.occupancy", layer("runner.occupancy"), "ratio"),
        (
            "runner.barrier_wait_ms",
            layer("runner.barrier_wait_ms"),
            "ms",
        ),
        ("runner.maps", timing.maps as f64, "count"),
        ("runner.jobs", work.runner.jobs as f64, "count"),
        ("contention.ns_per_event", engine_ns, "ns"),
        ("contention.events", e.events as f64, "count"),
        ("contention.ev_beacon", e.ev_beacon as f64, "count"),
        ("contention.ev_arrival", e.ev_arrival as f64, "count"),
        ("contention.ev_cca", e.ev_cca as f64, "count"),
        ("contention.ev_tx_end", e.ev_tx_end as f64, "count"),
        ("contention.ev_gts", e.ev_gts as f64, "count"),
        ("contention.ev_dl_poll", e.ev_dl_poll as f64, "count"),
        (
            "contention.delivered_per_attempt",
            ratio(e.attempts_delivered as f64, attempts as f64),
            "ratio",
        ),
        (
            "contention.cca_per_attempt",
            ratio(
                e.ccas_per_attempt.sum as f64,
                e.ccas_per_attempt.count as f64,
            ),
            "ratio",
        ),
        ("events.queue_pushes", e.queue_pushes as f64, "count"),
        ("events.queue_pops", e.queue_pops as f64, "count"),
        ("events.skip_slots_mean", e.queue_skip_slots.mean(), "slots"),
        ("network.ns_per_event", network_ns, "ns"),
        (
            "network.accounting_ns_per_event",
            network_ns - engine_ns,
            "ns",
        ),
        ("network.bytes_per_node", bytes_per_node, "bytes"),
        ("network.shard2_speedup", shard2_speedup, "ratio"),
        (
            "policy.round_ms",
            ratio(layer("policy.run_s") * 1e3, rounds),
            "ms",
        ),
        ("policy.rounds", rounds, "count"),
        ("policy.moves", work.policy.moves as f64, "count"),
        ("telemetry.overhead_pct", telemetry_overhead, "%"),
        ("trace.traced_s", traced_s, "s"),
        ("trace.untraced_s", untraced_s, "s"),
        (
            "trace.overhead_pct",
            (traced_s / untraced_s - 1.0) * 100.0,
            "%",
        ),
        ("accuracy.paper_gap_pct", paper_gap.unwrap_or(0.0), "%"),
    ];
    Ok(Outcome {
        attempted: checker.attempted,
        failed: checker.failed,
        metrics,
        work,
        digest: checker.first.unwrap_or(0),
        paper_gap_pct: paper_gap,
    })
}

/// The digest of one pass over the input, for `digests.txt`.
pub fn digest_once(wl: Workload, ctx: &Ctx) -> Result<u64, BenchError> {
    fresh_dir(wl, ctx)?;
    let (input, _) = setup(wl, ctx)?;
    let pass = run_once(ctx, &input, None)?;
    if pass.bad_records > 0 {
        return Err(BenchError::Failed(format!(
            "{} records not ok",
            pass.bad_records
        )));
    }
    Ok(pass.digest)
}
