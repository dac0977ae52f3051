//! Output digests: a 64-bit fingerprint of everything a run computed that
//! must not change when only speed changes.
//!
//! A farm digest covers the JSONL record stream with its wall-clock fields
//! removed; a dense-channel digest covers every `f64` of the
//! [`NetworkSummary`] by bit pattern. Equal inputs must give equal digests
//! on every run, thread count and commit that claims to change speed only.

use wsn_sim::persist::{parse_document, render_compact, Node, Value};
use wsn_sim::NetworkSummary;

/// Record fields that carry host time, not simulation output.
const RECORD_TIMING_FIELDS: &[&str] = &["job_ms"];
/// Aggregate-record fields that carry host time.
const AGGREGATE_TIMING_FIELDS: &[&str] = &["wall_ms", "scenarios_per_sec"];

/// FNV-1a over bytes (64-bit): small, dependency-free and stable across
/// platforms and releases, unlike `std`'s `DefaultHasher`.
#[derive(Debug, Clone)]
pub struct Fnv64(u64);

impl Fnv64 {
    /// A fresh hasher at the FNV offset basis.
    pub fn new() -> Self {
        Fnv64(0xCBF2_9CE4_8422_2325)
    }

    /// Feeds raw bytes.
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    /// Feeds a length-prefixed string, so `("ab","c")` and `("a","bc")`
    /// hash differently.
    pub fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }

    /// Feeds a `u64` little-endian.
    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// Feeds an `f64` by bit pattern.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// The digest so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// One farm JSONL line with its wall-clock fields removed, re-rendered
/// compactly. Lines that do not parse are kept verbatim (and will then
/// differ from any reference digest).
pub fn strip_timing(line: &str) -> String {
    let Ok(mut node) = parse_document(line) else {
        return line.to_string();
    };
    if let Value::Obj(pairs) = &mut node.value {
        let aggregate = pairs.iter().any(|(k, _)| k.name == "aggregate");
        let drop: &[&str] = if aggregate {
            AGGREGATE_TIMING_FIELDS
        } else {
            RECORD_TIMING_FIELDS
        };
        pairs.retain(|(k, _)| !drop.contains(&k.name.as_str()));
    }
    render_compact(&node)
}

/// Digest of a farm's JSONL output, timing fields stripped.
pub fn digest_jsonl(text: &str) -> u64 {
    let mut h = Fnv64::new();
    for line in text.lines().filter(|l| !l.is_empty()) {
        h.str(&strip_timing(line));
    }
    h.finish()
}

/// Digest of a finalized channel summary: every `f64` by bit pattern,
/// per-node powers included, plus the integer counters.
pub fn digest_summary(s: &NetworkSummary) -> u64 {
    let mut h = Fnv64::new();
    for v in [
        s.mean_node_power.watts(),
        s.ledger.total_energy().joules(),
        s.failure_ratio.value(),
        s.mean_delay.secs(),
        s.mean_attempts,
        s.energy_per_bit_nj,
        s.power_standard_error.watts(),
        s.failure_standard_error,
        s.delay_standard_error.secs(),
        s.cap_power.watts(),
        s.cfp_power.watts(),
        s.cap_power_standard_error.watts(),
        s.cfp_power_standard_error.watts(),
        s.gts_failure_ratio.value(),
        s.downlink_failure_ratio.value(),
        s.join_failure_ratio.value(),
        s.mean_reassociation_delay.secs(),
        s.energy_per_delivered_packet_uj,
    ] {
        h.f64(v);
    }
    for v in [
        s.transactions,
        u64::from(s.replications),
        s.gts_transactions,
        s.gts_denied,
        s.downlink_polls,
        s.downlink_deferred,
        s.deaths,
        s.orphan_scans,
        s.join_attempts,
        s.dormant_nodes,
    ] {
        h.u64(v);
    }
    h.u64(s.node_powers.len() as u64);
    for p in &s.node_powers {
        h.f64(p.watts());
    }
    h.finish()
}

/// A node's value as `f64`, for reading numbers back out of records.
pub fn number(node: &Node) -> Option<f64> {
    match node.value {
        Value::UInt(v) => Some(v as f64),
        Value::Float(v) => Some(v),
        _ => None,
    }
}

/// The field `name` of an object node.
pub fn field<'a>(node: &'a Node, name: &str) -> Option<&'a Node> {
    match &node.value {
        Value::Obj(pairs) => pairs.iter().find(|(k, _)| k.name == name).map(|(_, v)| v),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strip_removes_only_timing_fields() {
        let rec = r#"{"scenario":"a","job_ms":1.25,"overall":{"power_uw":211.5}}"#;
        assert_eq!(
            strip_timing(rec),
            r#"{"scenario":"a","overall":{"power_uw":211.5}}"#
        );
        let agg = r#"{"aggregate":true,"jobs":4,"wall_ms":9.5,"scenarios_per_sec":3.25}"#;
        assert_eq!(strip_timing(agg), r#"{"aggregate":true,"jobs":4}"#);
    }

    #[test]
    fn digest_ignores_timing_and_sees_results() {
        let a = "{\"scenario\":\"a\",\"job_ms\":1.0,\"power\":2.5}\n\
                 {\"aggregate\":true,\"wall_ms\":3.0,\"scenarios_per_sec\":1.0}\n";
        let b = "{\"scenario\":\"a\",\"job_ms\":7.0,\"power\":2.5}\n\
                 {\"aggregate\":true,\"wall_ms\":5.0,\"scenarios_per_sec\":2.0}\n";
        let c = "{\"scenario\":\"a\",\"job_ms\":1.0,\"power\":2.5000001}\n\
                 {\"aggregate\":true,\"wall_ms\":3.0,\"scenarios_per_sec\":1.0}\n";
        assert_eq!(digest_jsonl(a), digest_jsonl(b));
        assert_ne!(digest_jsonl(a), digest_jsonl(c));
    }

    #[test]
    fn digest_is_stable() {
        // Pinned: a change here would silently invalidate every recorded
        // digest in `digests.txt`. First the published FNV-1a 64 vectors.
        for (input, expected) in [
            ("", 0xcbf2_9ce4_8422_2325u64),
            ("a", 0xaf63_dc4c_8601_ec8c),
            ("foobar", 0x8594_4171_f739_67e8),
        ] {
            let mut h = Fnv64::new();
            h.bytes(input.as_bytes());
            assert_eq!(h.finish(), expected, "{input:?}");
        }
        let mut h = Fnv64::new();
        h.str("perfbench");
        h.f64(211.0);
        assert_eq!(h.finish(), 0xa043_150f_130c_b7c1);
        assert_eq!(
            digest_jsonl("{\"scenario\":\"x\",\"job_ms\":0.5}\n"),
            digest_jsonl("{\"scenario\":\"x\",\"job_ms\":99}\n")
        );
    }
}
