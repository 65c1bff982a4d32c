//! Bit-exact trajectory goldens for the fleet engine (DESIGN §14).
//!
//! Each test runs one of the paper's workloads and compares two
//! FNV-1a fingerprints against committed constants:
//!
//! - the order-sensitive trajectory checksum (same field set and mixing
//!   as `ShardedTestbed::checksum`), and
//! - a digest of the full-field dump text, which renders every float
//!   as its raw bit pattern, so an equal digest means a bit-equal
//!   trajectory, not merely one that rounds the same.
//!
//! The workloads: a paper row under the fig7-calibrated batch job mix
//! (`RateProfile::heavy_row` draws durations from the fig7
//! `JobDurationDist`), the fig10 parity-split experiment/control row,
//! and a faulted sharded fleet on 4 workers.
//!
//! The constants were produced by the struct-of-arrays engine and
//! confirmed equal on the pre-SoA nested `Vec<Server>` storage it
//! replaced, so they carry that engine's bit-exactness forward: a
//! refactor of the fleet storage that changes one bit of any of these
//! trajectories fails here.

use ampere_experiments::calibrate::default_controller;
use ampere_experiments::fig10::parity_testbed_with;
use ampere_experiments::testbed::{
    DomainTickRecord, ShardedTestbed, ShardedTestbedConfig, Testbed, TestbedConfig,
};
use ampere_faults::FaultPlan;
use ampere_sim::SimDuration;
use ampere_workload::RateProfile;
use std::fmt::Write as _;

/// Fig7 paper row, seed 7, 3 h: trajectory checksum and dump digest.
const FIG7_ROW_CHECKSUM: u64 = 0xb133_542e_6e1d_13fd;
const FIG7_ROW_DUMP_DIGEST: u64 = 0x6275_aa5f_20b3_2f98;
/// Fig10 parity split, seed 10, r_O 0.25, 3 h: experiment group.
const FIG10_EXP_CHECKSUM: u64 = 0xd78a_81aa_08ba_e9fa;
const FIG10_EXP_DUMP_DIGEST: u64 = 0xb973_759a_f69d_598a;
/// Fig10 parity split: control group.
const FIG10_CTL_CHECKSUM: u64 = 0xdc9d_ac8d_0245_a713;
const FIG10_CTL_DUMP_DIGEST: u64 = 0x875e_42d4_d8af_0cfe;
/// Faulted sharded run, 6 shards, seed 99, 45 min: fleet checksum and
/// digest of the concatenated per-shard dumps.
const SHARDED_FAULTED_CHECKSUM: u64 = 0x18c7_56b6_bcc4_b528;
const SHARDED_FAULTED_DUMP_DIGEST: u64 = 0x9cd0_86eb_c74a_2c2e;

/// Renders every field of every record with full bit fidelity: floats
/// as raw bit patterns.
fn dump(records: &[DomainTickRecord]) -> String {
    let mut out = String::new();
    for r in records {
        writeln!(
            out,
            "t={} p={:016x} pn={:016x} fz={} fr={:016x} u={:016x} v={} cap={} \
             mf={:016x} pl={} fr+={} fr-={} cov={:016x} deg={} arm={}",
            r.time.as_millis(),
            r.power_w.to_bits(),
            r.power_norm.to_bits(),
            r.frozen,
            r.freezing_ratio.to_bits(),
            r.u_target.to_bits(),
            r.violation,
            r.capped_servers,
            r.mean_freq.to_bits(),
            r.placed_jobs,
            r.froze,
            r.unfroze,
            r.coverage.to_bits(),
            r.degraded,
            r.backstop_armed,
        )
        .unwrap();
    }
    out
}

/// FNV-1a over a stream of 64-bit words.
fn fnv1a(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for v in words {
        h ^= v;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Order-sensitive trajectory checksum (same field set and mixing as
/// `ShardedTestbed::checksum`).
fn checksum(records: &[DomainTickRecord]) -> u64 {
    fnv1a(records.iter().flat_map(|r| {
        [
            r.time.as_millis(),
            r.power_w.to_bits(),
            r.frozen as u64,
            r.u_target.to_bits(),
            u64::from(r.violation),
            r.placed_jobs,
            r.mean_freq.to_bits(),
        ]
    }))
}

/// Byte-wise FNV-1a digest of a dump's text.
fn digest(dump: &str) -> u64 {
    fnv1a(dump.bytes().map(u64::from))
}

#[test]
fn fig7_workload_row_domain_matches_golden() {
    let mut tb = Testbed::new(TestbedConfig::paper_row(RateProfile::heavy_row(), 7));
    let rows = tb.add_row_domains(0.8).expect("rows registered once");
    tb.run_for(SimDuration::from_hours(3));
    let recs = tb.records(rows[0]);
    let text = dump(recs);
    assert!(
        text.lines().count() >= 180,
        "trajectory too short to be a meaningful golden"
    );
    assert_eq!(checksum(recs), FIG7_ROW_CHECKSUM, "trajectory checksum");
    assert_eq!(digest(&text), FIG7_ROW_DUMP_DIGEST, "dump digest");
}

#[test]
fn fig10_parity_split_matches_golden() {
    let (mut tb, exp, ctl) = parity_testbed_with(
        RateProfile::heavy_row(),
        10,
        0.25,
        Some(default_controller()),
        None,
    );
    tb.run_for(SimDuration::from_hours(3));
    let (e, c) = (tb.records(exp), tb.records(ctl));
    let (e_text, c_text) = (dump(e), dump(c));
    // The two groups are genuinely different trajectories, so the
    // goldens below do not pin empty or degenerate data.
    assert_ne!(e_text, c_text, "parity groups should not coincide");
    assert_eq!(checksum(e), FIG10_EXP_CHECKSUM, "experiment checksum");
    assert_eq!(
        digest(&e_text),
        FIG10_EXP_DUMP_DIGEST,
        "experiment dump digest"
    );
    assert_eq!(checksum(c), FIG10_CTL_CHECKSUM, "control checksum");
    assert_eq!(
        digest(&c_text),
        FIG10_CTL_DUMP_DIGEST,
        "control dump digest"
    );
}

/// Runs the sharded fleet, 6 shards of one tiny row each, for 45 min;
/// returns the fleet checksum and the concatenated per-shard dumps.
fn sharded(faults: Option<FaultPlan>, workers: usize) -> (u64, String) {
    let mut sharded = ShardedTestbed::new(ShardedTestbedConfig {
        faults,
        ..ShardedTestbedConfig::quick(6, workers, 99)
    });
    sharded.run_for(SimDuration::from_mins(45));
    let dumps: String = (0..sharded.shard_count())
        .map(|s| dump(sharded.records(s)))
        .collect();
    (sharded.checksum(), dumps)
}

/// A seeded fault plan (dropout, drift, sweep faults, lost RPCs)
/// applied to every shard.
fn fault_plan() -> FaultPlan {
    FaultPlan {
        sample_dropout: 0.05,
        sweep_loss: 0.02,
        sensor_noise: 0.01,
        sensor_bias: 0.02,
        rpc_loss: 0.05,
        ..FaultPlan::seeded(7)
    }
}

#[test]
fn faulted_sharded_run_at_workers_4_matches_golden() {
    let (sum, text) = sharded(Some(fault_plan()), 4);
    assert_eq!(sum, SHARDED_FAULTED_CHECKSUM, "fleet checksum");
    assert_eq!(digest(&text), SHARDED_FAULTED_DUMP_DIGEST, "dump digest");

    // The faulted run is worker-count invariant (DESIGN §9).
    let (serial_sum, serial_text) = sharded(Some(fault_plan()), 1);
    assert_eq!(sum, serial_sum, "workers=4 vs 1 checksums diverged");
    assert_eq!(text, serial_text, "workers=4 vs 1 dumps diverged");

    // And the fault plan actually bit: a clean run differs.
    let (clean_sum, _) = sharded(None, 4);
    assert_ne!(clean_sum, sum, "fault plan had no effect");
}
