//! Experiment SCALE — single-channel node-count ladder for the
//! million-node hot path.
//!
//! One channel, one replication, node counts climbing a decade per point
//! (10³ → 10⁶): the configuration where nothing amortizes the per-node
//! cost — no channel parallelism, no replication parallelism — so the
//! numbers isolate exactly what the per-node records, the bitmap-skipped
//! calendar ring and the O(1) config views buy. Each point reports
//! engine events per second (throughput — the number that must stay flat
//! as N grows, or the hot path is super-linear) and the mean µW per node
//! (the paper's headline metric; at fixed aggregate load λ the beacon
//! interval stretches with N, so per-node power falls ~1/N — the ladder
//! pins that trend, not a constant).
//!
//! The ladder also *proves* the spatial-shard contract where it matters:
//! at the largest point at or below 10⁵ nodes, the sharded run
//! (`run_accumulate_sharded`, 4 shards) is compared field-for-field —
//! f64s by bit pattern — against the serial run, and the binary aborts on
//! any mismatch.
//!
//! The 10⁶-node point is attempted only when the estimated footprint
//! (calendar ring + per-node state) fits comfortably in the host's
//! available memory; a skipped point is recorded in the JSON rather than
//! silently dropped. `BENCH_SCALE_MAX_NODES` caps the ladder from the
//! environment — CI's smoke run sets it to keep the ladder small.
//!
//! Usage: `cargo run --release -p wsn-bench --bin bench_scale
//! [superframes] [--threads N] [--json]`

use std::time::Instant;

use wsn_bench::{elapsed_ms, Json, RunArgs, BENCH_SCALE_PATH};
use wsn_phy::ber::EmpiricalCc2420Ber;
use wsn_radio::RadioModel;
use wsn_sim::network::{NetworkConfig, NetworkSimulator, NetworkSummary, TxPowerPolicy};
use wsn_sim::ChannelSimConfig;
use wsn_units::{DBm, Db, Seconds};

/// Fixed per-point traffic so the ladder is comparable across PRs.
const PAYLOAD_BYTES: usize = 120;
const LOAD: f64 = 0.4;
const SEED: u64 = 0x5CA1E;

/// The single channel at `nodes`: a deterministic 55–95 dB loss ramp
/// (stride 997 decorrelates loss from node index) under channel-inversion
/// power control — every node does per-node BER math, like the studies.
fn scale_config(nodes: usize, superframes: u32) -> NetworkConfig {
    let mut channel = ChannelSimConfig::figure6(PAYLOAD_BYTES, LOAD, SEED);
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

/// Rough resident-set estimate for one ladder point: the calendar ring
/// (the dominant allocation at 10⁶ nodes — `ring × 5 classes × 8 B`
/// buckets plus the occupancy bitmap) and ~600 B of per-node state (RNG,
/// CSMA machine, hot struct, ledger, losses/levels/probs).
fn estimated_bytes(cfg: &NetworkConfig) -> u64 {
    let sf_slots = cfg.channel.timings().superframe_slots;
    let ring = (sf_slots + 301).next_power_of_two();
    let buckets = ring * 5 * 8;
    let bitmap = ring * 5 / 8 + ring / 8;
    buckets + bitmap + cfg.channel.nodes as u64 * 600
}

/// `MemAvailable` from `/proc/meminfo`, if readable.
fn available_memory_bytes() -> Option<u64> {
    let meminfo = std::fs::read_to_string("/proc/meminfo").ok()?;
    let line = meminfo.lines().find(|l| l.starts_with("MemAvailable:"))?;
    let kb: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb * 1024)
}

/// Field-for-field equality of two summaries, f64s compared by bit
/// pattern — the shard contract is *bit*-identity, not tolerance.
fn summaries_bit_identical(a: &NetworkSummary, b: &NetworkSummary) -> bool {
    a.mean_node_power == b.mean_node_power
        && a.node_powers == b.node_powers
        && a.failure_ratio == b.failure_ratio
        && a.transactions == b.transactions
        && a.mean_delay == b.mean_delay
        && a.mean_attempts.to_bits() == b.mean_attempts.to_bits()
        && a.energy_per_bit_nj.to_bits() == b.energy_per_bit_nj.to_bits()
        && a.cap_power == b.cap_power
        && a.cfp_power == b.cfp_power
        && a.ledger.total_energy() == b.ledger.total_energy()
}

fn main() {
    let args = RunArgs::parse(4);
    let runner = args.runner();
    let max_nodes: usize = std::env::var("BENCH_SCALE_MAX_NODES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1_000_000);

    let ber = EmpiricalCc2420Ber::paper();
    let ladder = [1_000usize, 10_000, 100_000, 1_000_000];

    println!(
        "# Single-channel scale ladder ({} superframes/point, load {LOAD}, {PAYLOAD_BYTES} B)",
        args.superframes
    );

    let mut points: Vec<Json> = Vec::new();
    let mut skipped: Vec<Json> = Vec::new();
    let mut ran: Vec<usize> = Vec::new();
    for &nodes in ladder.iter().filter(|&&n| n <= max_nodes) {
        let cfg = scale_config(nodes, args.superframes);
        let estimate = estimated_bytes(&cfg);
        if let Some(available) = available_memory_bytes() {
            // Leave half the host free: a swapping benchmark measures the
            // disk, not the engine.
            if estimate * 2 > available {
                println!(
                    "{nodes:>9} nodes : skipped (needs ~{:.1} GiB of {:.1} GiB available)",
                    estimate as f64 / (1u64 << 30) as f64,
                    available as f64 / (1u64 << 30) as f64
                );
                skipped.push(Json::Obj(vec![
                    ("nodes", Json::Int(nodes as i64)),
                    ("estimated_bytes", Json::Int(estimate as i64)),
                    ("available_bytes", Json::Int(available as i64)),
                ]));
                continue;
            }
        }
        let sim = NetworkSimulator::new(cfg);
        let t0 = Instant::now();
        let (mut acc, events) = sim.run_accumulate_counted(&ber);
        let wall_ms = elapsed_ms(t0);
        acc.seal_replication();
        let summary = acc.summary();
        let events_per_sec = events as f64 / (wall_ms / 1e3);
        let power_uw = summary.mean_node_power.microwatts();
        // Deterministic results and wall-clock on separate lines: the
        // timing line carries "threads" so CI's `grep -v threads` filter
        // leaves only bit-stable output for the 1-vs-N determinism diff.
        println!(
            "{nodes:>9} nodes : {events:>10} events, {power_uw:>7.1} µW/node, Pr_fail {:.4}",
            summary.failure_ratio.value()
        );
        println!(
            "{nodes:>9} timing: {wall_ms:>9.1} ms ⇒ {events_per_sec:>11.0} events/s ({} threads)",
            runner.threads()
        );
        points.push(Json::Obj(vec![
            ("nodes", Json::Int(nodes as i64)),
            ("events", Json::Int(events as i64)),
            ("wall_ms", Json::Num(wall_ms)),
            ("events_per_sec", Json::Num(events_per_sec)),
            ("power_uw_per_node", Json::Num(power_uw)),
            ("pr_fail", Json::Num(summary.failure_ratio.value())),
            ("transactions", Json::Int(summary.transactions as i64)),
        ]));
        ran.push(nodes);
    }
    assert!(!ran.is_empty(), "every ladder point was skipped");

    // --- sharded-vs-unsharded bit-identity --------------------------------
    // Verified at the largest executed point at or below 10⁵ nodes (the
    // acceptance bar; re-running the 10⁶ point would double the ladder's
    // peak footprint).
    let identity_nodes = ran
        .iter()
        .copied()
        .filter(|&n| n <= 100_000)
        .max()
        .expect("ladder always starts at 10³");
    const SHARDS: usize = 4;
    let sim = NetworkSimulator::new(scale_config(identity_nodes, args.superframes));
    let mut serial = sim.run_accumulate(&ber);
    serial.seal_replication();
    let mut sharded = sim.run_accumulate_sharded(&ber, SHARDS);
    sharded.seal_replication();
    let identical = summaries_bit_identical(&serial.summary(), &sharded.summary());
    println!(
        "shard identity  : {identity_nodes} nodes, {SHARDS} shards vs serial ⇒ {}",
        if identical {
            "bit-identical"
        } else {
            "DIVERGED"
        }
    );
    assert!(
        identical,
        "sharded run diverged from serial at {identity_nodes} nodes"
    );

    if args.json {
        let doc = Json::Obj(vec![
            ("benchmark", Json::Str("scale_ladder".into())),
            ("superframes", Json::Int(args.superframes as i64)),
            ("threads", Json::Int(runner.threads() as i64)),
            (
                "host_cpus",
                Json::Int(
                    std::thread::available_parallelism()
                        .map(|n| n.get() as i64)
                        .unwrap_or(1),
                ),
            ),
            ("load", Json::Num(LOAD)),
            ("payload_bytes", Json::Int(PAYLOAD_BYTES as i64)),
            ("points", Json::Arr(points)),
            ("skipped", Json::Arr(skipped)),
            (
                "sharded_identity",
                Json::Obj(vec![
                    ("nodes", Json::Int(identity_nodes as i64)),
                    ("shards", Json::Int(SHARDS as i64)),
                    ("identical", Json::Bool(identical)),
                ]),
            ),
        ]);
        std::fs::write(BENCH_SCALE_PATH, doc.render()).expect("write benchmark JSON");
        eprintln!("wrote {BENCH_SCALE_PATH}");
    }
}
