//! The three workloads, their configurations, and the correctness gate.
//!
//! Every workload is the E11/E15 sharded telescope farm: 8 hashed cells,
//! 500 ms windows, the reflect policy with a 10 s idle timeout, and one
//! 524,288-frame server per cell with room for 4,096 domains. The workload
//! seed drives the radiation trace (the program's input); the farm's own
//! seed stays the configuration's.

use potemkin_core::farm::FarmConfig;
use potemkin_core::parallel::{ShardedTelescopeConfig, ShardedTelescopeResult};
use potemkin_core::scenario::TelescopeConfig;
use potemkin_gateway::policy::PolicyConfig;
use potemkin_sim::SimTime;
use potemkin_snapshot::fnv1a64;
use potemkin_workload::radiation::RadiationConfig;
use potemkin_workload::worm::WormSpec;

/// The seed the pinned digests were taken at (E11's seed).
pub const DEFAULT_SEED: u64 = 2005;

/// Cells in the sharded farm.
pub const CELLS: usize = 8;

/// Barrier window width.
pub const WINDOW: SimTime = SimTime::from_millis(500);

/// Input seeds a timed run cycles through. One outbreak differs from the
/// next by about 5% in work, so a run that measured one input would carry
/// that into its median; three inputs per run average most of it out.
pub const INPUTS_PER_RUN: usize = 3;

/// The `k`-th input seed of a run at `seed`: the seed itself first, then
/// SplitMix64 draws from it, so runs at different seeds share no input.
#[must_use]
pub fn input_seed(seed: u64, k: usize) -> u64 {
    if k == 0 {
        return seed;
    }
    let mut z = seed.wrapping_add((k as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One benchmark workload.
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    /// Name on the command line and in `BENCHMARK.json`.
    pub name: &'static str,
    /// Default replay horizon in simulated milliseconds.
    pub horizon_ms: u64,
    /// Peak radiation sources per second.
    pub peak_source_rate: f64,
    /// Whether a Code Red worm spreads over 10.1.0.0/19 from 2 seed
    /// infections.
    pub worm: bool,
    /// Whether each operation checkpoints at the final barrier and
    /// restores from that snapshot.
    pub checkpoint: bool,
    /// `(events, digest)` of each input of a run at [`DEFAULT_SEED`] and
    /// the default horizon, in [`input_seed`] order.
    pub pinned: [(u64, u64); INPUTS_PER_RUN],
}

/// The workloads, in the order the doc describes them.
pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "worm_outbreak",
        horizon_ms: 5_000,
        peak_source_rate: 40.0,
        worm: true,
        checkpoint: false,
        pinned: [
            (144_279, 0x1cc0_3e42_fba0_d2cb),
            (141_150, 0x2f95_c47c_5c2c_9a9d),
            (148_956, 0x7a66_5df5_3050_de9f),
        ],
    },
    Workload {
        name: "scan_churn",
        horizon_ms: 12_000,
        peak_source_rate: 1000.0,
        worm: false,
        checkpoint: false,
        pinned: [
            (38_704, 0xddc1_3000_1049_8754),
            (40_307, 0xd931_6e28_927a_8f89),
            (40_107, 0x6c3f_bfeb_d794_6788),
        ],
    },
    Workload {
        name: "checkpoint_restore",
        horizon_ms: 3_000,
        peak_source_rate: 40.0,
        worm: true,
        checkpoint: true,
        pinned: [
            (4_400, 0x1f20_3719_a288_1c83),
            (4_452, 0x52d1_9368_4efa_5923),
            (4_535, 0x51d9_ff14_fc40_6bda),
        ],
    },
];

/// Looks a workload up by name.
#[must_use]
pub fn find(name: &str) -> Option<Workload> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}

impl Workload {
    /// The sharded replay configuration at `seed` and `horizon`.
    ///
    /// # Panics
    ///
    /// Panics if the fixed configuration is rejected (a bug).
    #[must_use]
    pub fn config(&self, seed: u64, horizon: SimTime) -> ShardedTelescopeConfig {
        let mut farm = FarmConfig::small_test();
        farm.gateway.policy = PolicyConfig::reflect().with_idle_timeout(SimTime::from_secs(10));
        farm.frames_per_server = 524_288;
        farm.max_domains_per_server = 4_096;
        if self.worm {
            farm.worm = Some(WormSpec::code_red("10.1.0.0/19".parse().expect("valid prefix")));
        }
        let radiation = RadiationConfig {
            peak_source_rate: self.peak_source_rate,
            ..RadiationConfig::default()
        };
        let base = TelescopeConfig::builder(farm, radiation)
            .seed(seed)
            .duration(horizon)
            .sample_interval(SimTime::from_secs(1))
            .tick_interval(SimTime::from_secs(1))
            .build()
            .expect("fixed telescope config is valid");
        ShardedTelescopeConfig::builder(base)
            .cells(CELLS)
            .window(WINDOW)
            .seed_infections(if self.worm { 2 } else { 0 })
            .build()
            .expect("fixed sharded config is valid")
    }
}

/// The E15 run digest: FNV-1a over the degradation report's canonical
/// string, `packets_in`, the final infected count and the fabric's remote
/// messages.
#[must_use]
pub fn digest(result: &ShardedTelescopeResult) -> u64 {
    fnv1a64(
        format!(
            "{}|{}|{}|{}",
            result.degradation.canonical_string(),
            result.stats.counters.get("packets_in"),
            result.final_infected,
            result.engine.remote_messages,
        )
        .as_bytes(),
    )
}

/// What the correctness gate looks at in one replay.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Summary {
    /// Events the engine dispatched.
    pub events: u64,
    /// The run digest.
    pub digest: u64,
    /// Packets that escaped containment.
    pub escaped: u64,
}

impl Summary {
    /// Summarizes a finished replay.
    #[must_use]
    pub fn of(result: &ShardedTelescopeResult) -> Summary {
        Summary {
            events: result.engine.total.events_processed,
            digest: digest(result),
            escaped: result.stats.counters.get("escaped"),
        }
    }
}

/// What a replay must reproduce: the pinned values at the default seed and
/// horizon, otherwise the first operation of the same run.
#[derive(Clone, Copy, Debug, Default)]
pub struct Expected {
    /// Exact event count, when known.
    pub events: Option<u64>,
    /// Exact run digest, when known.
    pub digest: Option<u64>,
}

impl Expected {
    /// Checks one replay; returns the first failed check, if any. Unknown
    /// expectations are filled in from this replay, so later operations
    /// must agree with it.
    pub fn check(&mut self, got: Summary) -> Result<(), String> {
        if got.escaped != 0 {
            return Err(format!("containment: escaped = {}", got.escaped));
        }
        match self.events {
            Some(want) if want != got.events => {
                return Err(format!("event count {} != expected {want}", got.events));
            }
            _ => self.events = Some(got.events),
        }
        match self.digest {
            Some(want) if want != got.digest => {
                return Err(format!("digest {:016x} != expected {want:016x}", got.digest));
            }
            _ => self.digest = Some(got.digest),
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn summary(events: u64, digest: u64, escaped: u64) -> Summary {
        Summary { events, digest, escaped }
    }

    #[test]
    fn unknown_expectations_are_taken_from_the_first_replay() {
        let mut expected = Expected::default();
        assert!(expected.check(summary(10, 0xab, 0)).is_ok());
        assert!(expected.check(summary(10, 0xab, 0)).is_ok());
        assert!(expected.check(summary(11, 0xab, 0)).unwrap_err().contains("event count"));
        assert!(expected.check(summary(10, 0xac, 0)).unwrap_err().contains("digest"));
    }

    #[test]
    fn an_escape_fails_even_a_matching_replay() {
        let mut expected = Expected { events: Some(10), digest: Some(0xab) };
        assert!(expected.check(summary(10, 0xab, 1)).unwrap_err().contains("escaped"));
    }

    #[test]
    fn input_seeds_are_distinct_and_start_at_the_run_seed() {
        for seed in [0, 1, DEFAULT_SEED, u64::MAX] {
            assert_eq!(input_seed(seed, 0), seed);
            let seeds: Vec<u64> = (0..INPUTS_PER_RUN).map(|k| input_seed(seed, k)).collect();
            assert!(seeds.iter().enumerate().all(|(i, a)| seeds[..i].iter().all(|b| a != b)));
        }
        assert_ne!(input_seed(1, 1), input_seed(2, 1));
    }

    #[test]
    fn workload_names_are_unique_and_pinned() {
        for (i, w) in WORKLOADS.iter().enumerate() {
            assert_eq!(find(w.name).map(|f| f.horizon_ms), Some(w.horizon_ms));
            assert!(WORKLOADS[..i].iter().all(|o| o.name != w.name));
            assert!(w.pinned.iter().all(|&(events, digest)| events > 1 && digest > 1));
        }
        assert!(find("nope").is_none());
    }
}
