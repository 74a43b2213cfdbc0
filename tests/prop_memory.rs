//! Property tests for the memory control plane.
//!
//! Three claims, each load-bearing for the content-sharing story:
//!
//! 1. **Sharing monotonicity.** Cloning more domains from one image never
//!    lowers the post-merge sharing ratio: every clone adds a full logical
//!    address space but only its private delta in resident frames, and the
//!    merge pass folds identical deltas. More clones → more sharing.
//! 2. **Merge invisibility.** A content-index merge pass never changes
//!    what any guest reads from any page — shared or private, written or
//!    pristine. Merging is a frame-table optimization, not a semantic op.
//! 3. **Reclaim determinism + containment.** Under a per-host frame
//!    budget, every shipped reclamation policy produces a byte-identical
//!    merged report for any shard worker count, and no pressure eviction
//!    opens a containment hole (the escape counter stays zero).
//!
//! The replay cases run full telescope scenarios per worker count, so
//! their budget is small; the fixed tests in `potemkin_bench::e13` and
//! `potemkin_vmm` cover the common configurations on every run.

use proptest::prelude::*;

use potemkin::farm::FarmConfig;
use potemkin::gateway::policy::PolicyConfig;
use potemkin::gateway::reclaim::ReclaimPolicyKind;
use potemkin::gateway::GatewayConfig;
use potemkin::parallel::{run_telescope_sharded, ShardedTelescopeConfig};
use potemkin::scenario::TelescopeConfig;
use potemkin::sim::SimTime;
use potemkin::vmm::guest::GuestProfile;
use potemkin::vmm::{DomainId, Host};
use potemkin::workload::radiation::RadiationConfig;
use potemkin::workload::worm::WormSpec;

/// A host with `clones` flash clones of one small image, each having
/// executed the same payload (identical pages, identical bytes), merged.
/// Returns the host and the clone domain ids.
fn diverged_merged_host(clones: usize, payload_seed: u64) -> (Host, Vec<DomainId>) {
    let profile = GuestProfile::small();
    let pages = profile.memory_pages;
    let payload = profile.pages_for_infection(payload_seed);
    let mut host = Host::new(4 * pages * clones as u64 + 65_536);
    let image = host.create_reference_image("prop", profile).expect("image fits");
    let mut domains = Vec::with_capacity(clones);
    for _ in 0..clones {
        let (id, _) = host.flash_clone(image).expect("clone fits");
        host.touch_pages(id, &payload, payload_seed).expect("guest writes");
        domains.push(id);
    }
    host.scan_and_merge().expect("host is alive");
    host.audit().expect("merge keeps the host invariants");
    (host, domains)
}

fn pressure_config(kind: ReclaimPolicyKind, seed: u64, cells: usize) -> ShardedTelescopeConfig {
    let gateway = GatewayConfig::builder()
        .policy(PolicyConfig::reflect().with_idle_timeout(SimTime::from_secs(10)))
        .build()
        .expect("valid gateway config");
    let farm = FarmConfig::builder()
        .gateway(gateway)
        .servers(2)
        .frames_per_server(262_144)
        .max_domains_per_server(4_096)
        .seed(seed)
        .worm(WormSpec::code_red("10.1.0.0/22".parse().expect("static prefix")))
        .evict_on_pressure(true)
        .memory_budget_frames(10_752)
        .merge_interval(SimTime::from_secs(1))
        .reclaim_policy(kind)
        .build()
        .expect("valid farm config");
    let base = TelescopeConfig::builder(farm, RadiationConfig::default())
        .seed(seed)
        .duration(SimTime::from_secs(3))
        .sample_interval(SimTime::from_secs(1))
        .tick_interval(SimTime::from_secs(1))
        .build()
        .expect("valid telescope config");
    ShardedTelescopeConfig::builder(base)
        .cells(cells)
        .window(SimTime::from_millis(500))
        .seed_infections(1)
        .build()
        .expect("valid sharded config")
}

/// Everything a pressure replay reports that must not depend on the
/// worker count, rendered to one comparable string.
fn pressure_digest(config: &ShardedTelescopeConfig, workers: usize) -> (String, u64) {
    let r = run_telescope_sharded(config, workers).expect("replay runs");
    (
        format!(
            "{}|in={}|cloned={}|recycled={}|evicted={}|pressure={}|merged={}|\
             logical={}|resident={}|infected={}",
            r.degradation.canonical_string(),
            r.stats.counters.get("packets_in"),
            r.stats.vms_cloned,
            r.stats.vms_recycled,
            r.stats.counters.get("evicted_for_pressure"),
            r.stats.counters.get("memory_pressure_events"),
            r.stats.counters.get("pages_merged"),
            r.stats.sharing.logical_pages,
            r.stats.sharing.resident_frames,
            r.final_infected,
        ),
        r.degradation.escaped,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// More clones of the same image never lower the post-merge sharing
    /// ratio, and the ratio always exceeds 1 once two clones share an
    /// image (a single clone pays the whole image cost alone, so its
    /// ratio legitimately sits below 1).
    #[test]
    fn sharing_ratio_is_monotone_in_clone_count(
        payload_seed in any::<u64>(),
        base in 2usize..=6,
        extra in 1usize..=6,
    ) {
        let (small_host, _) = diverged_merged_host(base, payload_seed);
        let (big_host, _) = diverged_merged_host(base + extra, payload_seed);
        let small = small_host.sharing_report();
        let big = big_host.sharing_report();
        prop_assert!(small.ratio() > 1.0, "clones must share: {}", small.ratio());
        prop_assert!(
            big.ratio() >= small.ratio(),
            "ratio fell with clone count: {} clones -> {:.4}, {} clones -> {:.4}",
            base, small.ratio(), base + extra, big.ratio()
        );
    }

    /// A merge pass never changes any guest-visible page: clones that
    /// wrote identical payloads, clones that wrote private data, and
    /// pristine pages all read back exactly as before the pass.
    #[test]
    fn merge_never_changes_guest_visible_contents(
        payload_seed in any::<u64>(),
        clones in 2usize..=5,
        private_writes in proptest::collection::vec((0u64..8_192, any::<u64>()), 0..16),
        probe_pfns in proptest::collection::vec(0u64..8_192, 1..32),
    ) {
        let profile = GuestProfile::small();
        let payload = profile.pages_for_infection(payload_seed);
        let mut host = Host::new(4 * profile.memory_pages * clones as u64 + 65_536);
        let image = host.create_reference_image("prop", profile).expect("image fits");
        let mut domains = Vec::with_capacity(clones);
        for _ in 0..clones {
            let (id, _) = host.flash_clone(image).expect("clone fits");
            host.touch_pages(id, &payload, payload_seed).expect("shared payload");
            domains.push(id);
        }
        // Domain 0 additionally writes private, clone-unique data.
        for &(pfn, value) in &private_writes {
            host.write_page(domains[0], pfn, value).expect("private write");
        }
        let before: Vec<Vec<u64>> = domains
            .iter()
            .map(|&d| {
                probe_pfns
                    .iter()
                    .map(|&pfn| host.read_page(d, pfn).expect("pfn in range"))
                    .collect()
            })
            .collect();
        host.scan_and_merge().expect("host is alive");
        prop_assert_eq!(host.audit(), Ok(()));
        for (i, &d) in domains.iter().enumerate() {
            for (j, &pfn) in probe_pfns.iter().enumerate() {
                let after = host.read_page(d, pfn).expect("pfn in range");
                prop_assert_eq!(
                    after, before[i][j],
                    "merge changed domain {} pfn {}", i, pfn
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// Under budget pressure, every reclaim policy yields a byte-identical
    /// report across 1/2/4 workers, and no eviction path leaks a packet.
    #[test]
    fn every_policy_is_deterministic_across_workers_and_contained(
        seed in any::<u64>(),
        cells in 1usize..=3,
    ) {
        for kind in [
            ReclaimPolicyKind::Oldest,
            ReclaimPolicyKind::LruByLastPacket,
            ReclaimPolicyKind::Clock,
        ] {
            let config = pressure_config(kind, seed, cells);
            let (serial, escaped_serial) = pressure_digest(&config, 1);
            prop_assert_eq!(escaped_serial, 0, "{}: serial run leaked", kind.name());
            for workers in [2usize, 4] {
                let (parallel, escaped_parallel) = pressure_digest(&config, workers);
                prop_assert_eq!(
                    &serial, &parallel,
                    "{}: {} workers diverged from serial", kind.name(), workers
                );
                prop_assert_eq!(escaped_parallel, 0, "{}: parallel run leaked", kind.name());
            }
        }
    }
}
