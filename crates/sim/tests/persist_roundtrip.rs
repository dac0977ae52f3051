//! The scenario-as-data contract, pinned against the committed fixtures
//! in `scenarios/`:
//!
//! * **byte round-trip** — for every committed fixture,
//!   `save(load(text)) == text` exactly (the writer is canonical and the
//!   committed files are in canonical form);
//! * **in-code equivalence** — every fixture decodes to precisely the
//!   `Scenario` the exporting binary builds in code (structural
//!   `PartialEq`), and *running* the loaded scenario is bit-identical to
//!   running the in-code one;
//! * **typed failures** — truncations, wrong types, duplicate keys and
//!   unknown fields produce positioned [`ParseError`]s, never panics.

use std::path::{Path, PathBuf};

use wsn_sim::scenario::{ChannelAllocation, DeploymentSpec, Scenario, TrafficSpec};
use wsn_sim::{fingerprint_scenario, load_scenario, save_scenario, FaultPlan, Runner};

/// The committed fixture directory at the repository root.
fn fixture_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../scenarios")
}

fn fixture_text(file: &str) -> String {
    let path = fixture_dir().join(file);
    std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read fixture {}: {e}", path.display()))
}

/// Every committed scenario fixture (`manifest.json` is not a scenario).
const FIXTURES: [&str; 6] = [
    "case_study_s5.json",
    "churn_outage.json",
    "clustered_heterogeneous_traffic.json",
    "indoor_disc_ring_stratified.json",
    "uniform_55_95_db_population.json",
    "uniform_with_gts_and_downlink.json",
];

/// What the exporting binaries build in code, fixture by fixture:
/// `case_study --export-scenario` (4 superframes, 1 rep),
/// `churn_study --export-scenario` (6 superframes, 1 rep) and
/// `scenario_sweep --save-dir` (4 superframes, 1 rep).
fn in_code(file: &str) -> Scenario {
    match file {
        "case_study_s5.json" => Scenario::new(
            "paper §5 case study",
            16,
            100,
            DeploymentSpec::UniformLossGrid {
                min_db: 55.0,
                max_db: 95.0,
            },
        )
        .with_traffic(TrafficSpec::uniform(120))
        .with_beacon_order(wsn_mac::BeaconOrder::new(6).expect("BO 6 valid"))
        .with_superframes(4),
        "churn_outage.json" => Scenario::new(
            "churn0.1-out2",
            3,
            12,
            DeploymentSpec::UniformLossGrid {
                min_db: 55.0,
                max_db: 90.0,
            },
        )
        .with_traffic(TrafficSpec::uniform(120).with_gts(1).with_downlink(0.3))
        .with_beacon_order(wsn_mac::BeaconOrder::new(3).expect("BO 3 valid"))
        .with_faults(
            FaultPlan::inert()
                .with_churn(0.10, 1, 3)
                .with_outages(0.10, 2),
        )
        .with_superframes(6),
        "clustered_heterogeneous_traffic.json" => Scenario::new(
            "clustered, heterogeneous traffic",
            4,
            50,
            DeploymentSpec::Clustered {
                field_radius_m: 50.0,
                cluster_radius_m: 6.0,
                exponent: 3.0,
                shadowing_db: 4.0,
            },
        )
        .with_allocation(ChannelAllocation::Contiguous)
        .with_traffic(TrafficSpec::per_channel(vec![40, 80, 120, 123]))
        .with_superframes(4),
        "indoor_disc_ring_stratified.json" => Scenario::new(
            "indoor disc, ring-stratified",
            4,
            50,
            DeploymentSpec::Disc {
                radius_m: 55.0,
                exponent: 3.0,
                shadowing_db: 4.0,
            },
        )
        .with_allocation(ChannelAllocation::RingStratified)
        .with_superframes(4),
        "uniform_55_95_db_population.json" => Scenario::new(
            "uniform 55-95 dB population",
            4,
            50,
            DeploymentSpec::UniformLossGrid {
                min_db: 55.0,
                max_db: 95.0,
            },
        )
        .with_superframes(4),
        "uniform_with_gts_and_downlink.json" => Scenario::new(
            "uniform with GTS and downlink",
            4,
            50,
            DeploymentSpec::UniformLossGrid {
                min_db: 55.0,
                max_db: 90.0,
            },
        )
        .with_traffic(TrafficSpec::uniform(120).with_gts(1).with_downlink(0.2))
        .with_superframes(4),
        other => panic!("no in-code reconstruction for {other}"),
    }
    .with_replications(1)
}

#[test]
fn committed_fixtures_round_trip_byte_for_byte() {
    for file in FIXTURES {
        let text = fixture_text(file);
        let saved = load_scenario(&text).unwrap_or_else(|e| panic!("{file}: {e}"));
        let rendered = save_scenario(&saved).unwrap_or_else(|e| panic!("{file}: {e}"));
        assert_eq!(rendered, text, "{file}: save(load(text)) != text");
    }
}

#[test]
fn committed_fixtures_decode_to_the_in_code_scenarios() {
    for file in FIXTURES {
        let saved = load_scenario(&fixture_text(file)).unwrap_or_else(|e| panic!("{file}: {e}"));
        assert!(saved.policy.is_none(), "{file}: fixtures are open-loop");
        assert_eq!(saved.scenario, in_code(file), "{file}: structural mismatch");
    }
}

#[test]
fn loaded_fixtures_run_bit_identically_to_the_in_code_scenarios() {
    let runner = Runner::from_env();
    for file in FIXTURES {
        let saved = load_scenario(&fixture_text(file)).unwrap_or_else(|e| panic!("{file}: {e}"));
        let loaded = saved.scenario.run(&runner);
        let reference = in_code(file).run(&runner);
        assert_eq!(
            loaded.overall.mean_node_power, reference.overall.mean_node_power,
            "{file}: power"
        );
        assert_eq!(
            loaded.overall.failure_ratio, reference.overall.failure_ratio,
            "{file}: failures"
        );
        assert_eq!(
            loaded.overall.power_standard_error, reference.overall.power_standard_error,
            "{file}: power se"
        );
        assert_eq!(
            loaded.overall.mean_delay, reference.overall.mean_delay,
            "{file}: delay"
        );
        assert_eq!(
            loaded.overall.transactions, reference.overall.transactions,
            "{file}: transactions"
        );
        assert_eq!(loaded.gts_denied, reference.gts_denied, "{file}: gts denied");
        for (c, (a, b)) in loaded
            .per_channel
            .iter()
            .zip(&reference.per_channel)
            .enumerate()
        {
            assert_eq!(a.node_powers, b.node_powers, "{file} ch{c}: node powers");
        }
    }
}

/// The resume key: a fingerprint is stable across load/save round-trips
/// of the same config and changes when any field (or the seed) does —
/// pinned on the committed fixtures so a format change that silently
/// invalidates every journal shows up here.
#[test]
fn fingerprints_are_stable_and_config_sensitive() {
    for file in FIXTURES {
        let saved = load_scenario(&fixture_text(file)).unwrap_or_else(|e| panic!("{file}: {e}"));
        let fp = fingerprint_scenario(&saved);
        assert_eq!(fp.len(), 16, "{file}: 64-bit hex digest");
        assert!(fp.bytes().all(|b| b.is_ascii_hexdigit()), "{file}: {fp}");
        // Round-tripping the text does not move the fingerprint.
        let reparsed = load_scenario(&save_scenario(&saved).unwrap()).unwrap();
        assert_eq!(fingerprint_scenario(&reparsed), fp, "{file}: round-trip");

        let mut reseeded = saved.clone();
        reseeded.scenario.seed = reseeded.scenario.seed.wrapping_add(1);
        assert_ne!(fingerprint_scenario(&reseeded), fp, "{file}: seed-blind");

        let mut retuned = saved.clone();
        retuned.scenario.superframes += 1;
        assert_ne!(fingerprint_scenario(&retuned), fp, "{file}: config-blind");
    }
}

/// The retired `shards` key: format 1 still requires it as an unsigned
/// integer but ignores its value, so a file saying `"shards": 4` loads,
/// saves back as the unedited fixture (same fingerprint) and runs
/// bit-identically to it.
#[test]
fn shards_key_is_accepted_and_ignored() {
    let text = fixture_text("churn_outage.json");
    let edited = text.replace("\"shards\": 1,", "\"shards\": 4,");
    assert_ne!(edited, text, "the replacement must hit");
    let original = load_scenario(&text).expect("fixture loads");
    let loaded = load_scenario(&edited).unwrap_or_else(|e| panic!("\"shards\": 4: {e}"));
    assert_eq!(
        save_scenario(&loaded).unwrap(),
        text,
        "renders the unedited fixture"
    );
    assert_eq!(
        fingerprint_scenario(&loaded),
        fingerprint_scenario(&original)
    );

    let runner = Runner::from_env();
    let got = loaded.scenario.run(&runner);
    let want = original.scenario.run(&runner);
    assert_eq!(got.overall.mean_node_power, want.overall.mean_node_power);
    assert_eq!(got.overall.failure_ratio, want.overall.failure_ratio);
    assert_eq!(got.overall.mean_delay, want.overall.mean_delay);
    assert_eq!(got.overall.transactions, want.overall.transactions);
    assert_eq!(got.overall.deaths, want.overall.deaths);
    for (c, (a, b)) in got.per_channel.iter().zip(&want.per_channel).enumerate() {
        assert_eq!(a.node_powers, b.node_powers, "ch{c}: node powers");
    }

    let bad = text.replace("\"shards\": 1,", "\"shards\": \"x\",");
    let err = load_scenario(&bad).expect_err("a string shard count must not decode");
    assert!(
        err.expected.contains("integer"),
        "diagnostic names the expected type: {err}"
    );
    assert!(err.line > 1, "position points into the document: {err}");
}

// ---------------------------------------------------------------------------
// Malformed input: typed, positioned errors — never panics.
// ---------------------------------------------------------------------------

#[test]
fn truncated_fixture_reports_a_positioned_error() {
    let text = fixture_text("case_study_s5.json");
    // Cut the document at several byte-ish points (char boundaries) and
    // make sure each failure is a typed error, not a panic.
    let chars: Vec<char> = text.chars().collect();
    for cut in [1, chars.len() / 4, chars.len() / 2, chars.len() - 2] {
        let truncated: String = chars[..cut].iter().collect();
        let err = load_scenario(&truncated)
            .expect_err("a truncated document must not decode");
        assert!(err.line >= 1, "cut at {cut}: line {}", err.line);
        assert!(!err.expected.is_empty(), "cut at {cut}: empty diagnostic");
    }
}

#[test]
fn wrong_types_are_rejected_with_position() {
    let text = fixture_text("churn_outage.json");
    let bad = text.replace("\"channels\": 3", "\"channels\": \"three\"");
    assert_ne!(bad, text, "the replacement must hit");
    let err = load_scenario(&bad).expect_err("a string channel count must not decode");
    assert!(
        err.expected.contains("integer"),
        "diagnostic names the expected type: {err}"
    );
    assert!(err.line > 1, "position points into the document: {err}");
}

#[test]
fn duplicate_keys_are_rejected() {
    let text = fixture_text("uniform_55_95_db_population.json");
    let bad = text.replace(
        "\"channels\": 4,",
        "\"channels\": 4,\n  \"channels\": 4,",
    );
    assert_ne!(bad, text, "the replacement must hit");
    let err = load_scenario(&bad).expect_err("duplicate keys must not decode");
    assert!(
        err.expected.contains("duplicate"),
        "diagnostic names the duplicate: {err}"
    );
}

#[test]
fn unknown_fields_are_rejected() {
    let text = fixture_text("uniform_with_gts_and_downlink.json");
    let bad = text.replace(
        "\"shards\": 1,",
        "\"shards\": 1,\n  \"turbo\": true,",
    );
    assert_ne!(bad, text, "the replacement must hit");
    let err = load_scenario(&bad).expect_err("unknown fields must not decode");
    assert!(
        err.expected.contains("turbo"),
        "diagnostic names the stray field: {err}"
    );
}

#[test]
fn format_version_is_enforced() {
    let text = fixture_text("case_study_s5.json");
    let bad = text.replace("\"format\": 1,", "\"format\": 2,");
    assert_ne!(bad, text, "the replacement must hit");
    let err = load_scenario(&bad).expect_err("an unknown format version must not decode");
    assert!(err.expected.contains('1'), "diagnostic names format 1: {err}");
}
