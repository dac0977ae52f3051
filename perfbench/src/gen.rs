//! Seeded input generation. The program under test sees only the files
//! written here: scenario documents plus a manifest whose batch seed is
//! the workload seed.

use std::io;
use std::path::Path;

use wsn_sim::persist::{json, render_document};
use wsn_sim::scenario::{BerChoice, ChannelAllocation, DeploymentSpec, PayloadSpec};
use wsn_sim::{
    load_scenario, save_scenario, PolicyChoice, SavedScenario, Scenario, Xoshiro256StarStar,
};

/// The six committed scenario families, byte for byte.
pub const FIXTURES: [(&str, &str); 6] = [
    (
        "case_study_s5",
        include_str!("../fixtures/case_study_s5.json"),
    ),
    (
        "churn_outage",
        include_str!("../fixtures/churn_outage.json"),
    ),
    (
        "clustered_heterogeneous_traffic",
        include_str!("../fixtures/clustered_heterogeneous_traffic.json"),
    ),
    (
        "indoor_disc_ring_stratified",
        include_str!("../fixtures/indoor_disc_ring_stratified.json"),
    ),
    (
        "uniform_55_95_db_population",
        include_str!("../fixtures/uniform_55_95_db_population.json"),
    ),
    (
        "uniform_with_gts_and_downlink",
        include_str!("../fixtures/uniform_with_gts_and_downlink.json"),
    ),
];

/// Name of the unmodified §5 case study inside the generated farm.
pub const CASE_STUDY_NAME: &str = "paper §5 case study";

/// Stream salts, so the two generators never share draws.
const FARM_SALT: u64 = 0xFA53_5EED;
const POLICY_SALT: u64 = 0x9011_C75E;

/// Uniform integer in `lo..=hi`.
fn between(rng: &mut Xoshiro256StarStar, lo: usize, hi: usize) -> usize {
    lo + rng.index(hi - lo + 1)
}

fn fixture(text: &str) -> SavedScenario {
    load_scenario(text).expect("committed fixtures parse")
}

/// The `farm_sweep` input: the unmodified §5 case study followed by
/// `count - 1` small open-loop variants of the six fixture families, with
/// drawn names, payloads, node counts and superframe counts. Node counts
/// never exceed the family's own, so every channel load stays inside
/// `(0, 1)` and every scenario validates.
pub fn farm_sweep(seed: u64, count: usize) -> Vec<SavedScenario> {
    let mut rng = Xoshiro256StarStar::seed_from_u64(seed ^ FARM_SALT);
    let mut out = vec![fixture(FIXTURES[0].1)];
    for i in 1..count {
        let (family, text) = FIXTURES[(i - 1) % FIXTURES.len()];
        let mut s = fixture(text).scenario;
        s.name = format!("{family}-{i:05}");
        if family == "case_study_s5" {
            // The §5 family shrunk to farm-job size: 2–4 of its channels.
            s.channels = between(&mut rng, 2, 4);
        }
        let base = s.nodes_per_channel;
        s.nodes_per_channel = between(&mut rng, base.div_ceil(2), base);
        s.superframes = between(&mut rng, 3, 5) as u32;
        s.traffic.payloads = match &s.traffic.payloads {
            PayloadSpec::Uniform { .. } => PayloadSpec::Uniform {
                payload_bytes: between(&mut rng, 20, 123),
            },
            PayloadSpec::PerChannel { payload_bytes } => PayloadSpec::PerChannel {
                payload_bytes: payload_bytes
                    .iter()
                    .map(|_| between(&mut rng, 20, 123))
                    .collect(),
            },
        };
        out.push(SavedScenario::open_loop(s));
    }
    out
}

/// The `policy_rounds` input: `entries` closed-loop scenarios cycling
/// through three 8-channel deployments (ring-stratified disc, per-channel
/// clusters, asymmetric channel quality) and three policies, each with a
/// drawn node count near 100 per channel. Every entry gets the same
/// budget of `rounds` rounds, so the work does not swing with the seed.
pub fn policy_rounds(seed: u64, entries: usize, rounds: u32) -> Vec<SavedScenario> {
    const CHANNELS: usize = 8;
    let mut rng = Xoshiro256StarStar::seed_from_u64(seed ^ POLICY_SALT);
    (0..entries)
        .map(|i| {
            let nodes = between(&mut rng, 90, 100);
            let (kind, scenario) = match i % 3 {
                0 => (
                    "ring",
                    Scenario::new(
                        "",
                        CHANNELS,
                        nodes,
                        DeploymentSpec::Disc {
                            radius_m: 60.0,
                            exponent: 3.0,
                            shadowing_db: 4.0,
                        },
                    )
                    .with_allocation(ChannelAllocation::RingStratified),
                ),
                1 => (
                    "cluster",
                    Scenario::new(
                        "",
                        CHANNELS,
                        nodes,
                        DeploymentSpec::Clustered {
                            field_radius_m: 55.0,
                            cluster_radius_m: 6.0,
                            exponent: 3.0,
                            shadowing_db: 4.0,
                        },
                    )
                    .with_allocation(ChannelAllocation::Contiguous),
                ),
                _ => (
                    "asym",
                    Scenario::new(
                        "",
                        CHANNELS,
                        nodes,
                        DeploymentSpec::UniformLossGrid {
                            min_db: 55.0,
                            max_db: 90.0,
                        },
                    )
                    .with_channel_ber(
                        (0..CHANNELS)
                            .map(|c| {
                                BerChoice::HardDecisionDsss {
                                    noise_figure_db: 23.0,
                                }
                                .with_noise_offset(c as f64 * 0.75)
                            })
                            .collect(),
                    ),
                ),
            };
            let policy = match (i / 3) % 3 {
                0 => PolicyChoice::Greedy {
                    rounds,
                    max_moves: 8,
                    tolerance: 0.02,
                    move_cost: 0.0,
                },
                1 => PolicyChoice::ProportionalFair {
                    rounds,
                    epsilon: 0.05,
                },
                _ => PolicyChoice::Static { rounds },
            };
            let mut scenario = scenario.with_superframes(3);
            scenario.name = format!("{kind}-{}-{i:03}", policy.name());
            SavedScenario {
                scenario,
                policy: Some(policy),
            }
        })
        .collect()
}

/// File name of the generated manifest.
pub const MANIFEST: &str = "manifest.json";

/// Renders one scenario document per input plus the manifest (batch seed
/// `seed`) that lists them: `(file name, text)` pairs, manifest last.
pub fn render_inputs(seed: u64, inputs: &[SavedScenario]) -> Result<Vec<(String, String)>, String> {
    let mut files = Vec::with_capacity(inputs.len() + 1);
    for (i, saved) in inputs.iter().enumerate() {
        let text = save_scenario(saved).map_err(|e| e.to_string())?;
        files.push((format!("s{i:05}.json"), text));
    }
    let manifest = json::obj(vec![
        ("format", json::uint(1)),
        ("seed", json::uint(seed)),
        (
            "scenarios",
            json::arr(files.iter().map(|(name, _)| json::string(name)).collect()),
        ),
    ]);
    files.push((MANIFEST.to_string(), render_document(&manifest)));
    Ok(files)
}

/// Writes rendered files into `dir`, creating it.
pub fn write_files(dir: &Path, files: &[(String, String)]) -> io::Result<()> {
    std::fs::create_dir_all(dir)?;
    for (name, text) in files {
        std::fs::write(dir.join(name), text)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generators_are_deterministic_per_seed() {
        assert_eq!(farm_sweep(7, 40), farm_sweep(7, 40));
        assert_ne!(farm_sweep(7, 40), farm_sweep(8, 40));
        assert_eq!(policy_rounds(7, 9, 4), policy_rounds(7, 9, 4));
        assert_ne!(policy_rounds(7, 9, 4), policy_rounds(8, 9, 4));
    }

    #[test]
    fn farm_starts_with_the_unmodified_case_study() {
        let farm = farm_sweep(3, 13);
        assert_eq!(farm[0], fixture(FIXTURES[0].1));
        assert_eq!(farm[0].scenario.name, CASE_STUDY_NAME);
        // Every family appears among the variants.
        for (family, _) in FIXTURES {
            assert!(farm.iter().any(|s| s.scenario.name.starts_with(family)));
        }
    }

    #[test]
    fn every_generated_file_round_trips_and_validates() {
        let inputs: Vec<SavedScenario> = farm_sweep(11, 60)
            .into_iter()
            .chain(policy_rounds(11, 9, 4))
            .collect();
        for saved in &inputs {
            saved
                .scenario
                .validate()
                .expect("generated scenarios validate");
            let text = save_scenario(saved).expect("generated scenarios save");
            let back = load_scenario(&text).expect("saved text loads");
            assert_eq!(&back, saved);
            assert_eq!(save_scenario(&back).expect("saves again"), text);
        }
    }

    #[test]
    fn written_manifest_loads_as_a_batch() {
        let dir = crate::work_root().join(format!("test-gen-{}", std::process::id()));
        let files = render_inputs(5, &farm_sweep(5, 8)).expect("inputs render");
        write_files(&dir, &files).expect("inputs write");
        let set = wsn_sim::BatchSet::load_manifest(&dir.join(MANIFEST)).expect("manifest loads");
        assert_eq!(set.entries().len(), 8);
        assert_eq!(set.batch_seed(), Some(5));
        std::fs::remove_dir_all(&dir).expect("scratch dir removes");
    }
}
