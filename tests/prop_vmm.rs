//! Property-based tests on the VMM's core invariants: under arbitrary
//! interleavings of clone / write / destroy operations,
//!
//! 1. frames are conserved exactly (no leak, no double-free),
//! 2. copy-on-write isolation holds (a domain's reads see exactly its own
//!    writes overlaid on the immutable image),
//! 3. the memory report stays internally consistent,
//! 4. `Host::audit` holds after every step: frame refcounts match the
//!    references the images and p2m deltas hold, and the free list is
//!    exact — also under merge, snapshot, full-copy and crash.

use proptest::prelude::*;
use std::collections::HashMap;

use potemkin::vmm::guest::GuestProfile;
use potemkin::vmm::{DomainId, Host, ImageId};

#[derive(Clone, Debug)]
enum Op {
    Clone,
    Write { vm_pick: usize, pfn: u64, value: u64 },
    Read { vm_pick: usize, pfn: u64 },
    Destroy { vm_pick: usize },
    Rollback { vm_pick: usize },
    Reshare { vm_pick: usize },
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        2 => Just(Op::Clone),
        6 => (any::<usize>(), 0u64..2048, any::<u64>())
            .prop_map(|(vm_pick, pfn, value)| Op::Write { vm_pick, pfn, value }),
        4 => (any::<usize>(), 0u64..2048).prop_map(|(vm_pick, pfn)| Op::Read { vm_pick, pfn }),
        1 => any::<usize>().prop_map(|vm_pick| Op::Destroy { vm_pick }),
        1 => any::<usize>().prop_map(|vm_pick| Op::Rollback { vm_pick }),
        1 => any::<usize>().prop_map(|vm_pick| Op::Reshare { vm_pick }),
    ]
}

fn tiny_profile() -> GuestProfile {
    let mut p = GuestProfile::small();
    p.memory_pages = 2_048;
    p.disk_blocks = 64;
    p
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn vmm_invariants_under_random_ops(ops in proptest::collection::vec(arb_op(), 1..200)) {
        let mut host = Host::new(200_000).with_overhead_pages(8);
        let image = host.create_reference_image("prop", tiny_profile()).unwrap();
        let baseline = host.memory_report().used_frames;

        // The model: per live domain, the set of (pfn -> value) writes.
        let mut live: Vec<DomainId> = Vec::new();
        let mut model: HashMap<DomainId, HashMap<u64, u64>> = HashMap::new();

        for op in ops {
            match op {
                Op::Clone => {
                    let (dom, _) = host.flash_clone(image).unwrap();
                    live.push(dom);
                    model.insert(dom, HashMap::new());
                }
                Op::Write { vm_pick, pfn, value } => {
                    if live.is_empty() { continue; }
                    let dom = live[vm_pick % live.len()];
                    host.write_page(dom, pfn, value).unwrap();
                    model.get_mut(&dom).unwrap().insert(pfn, value);
                }
                Op::Read { vm_pick, pfn } => {
                    if live.is_empty() { continue; }
                    let dom = live[vm_pick % live.len()];
                    let got = host.read_page(dom, pfn).unwrap();
                    let expect = model[&dom]
                        .get(&pfn)
                        .copied()
                        .unwrap_or_else(|| GuestProfile::boot_content(image.0, pfn));
                    prop_assert_eq!(got, expect, "CoW isolation violated for {} pfn {}", dom, pfn);
                }
                Op::Destroy { vm_pick } => {
                    if live.is_empty() { continue; }
                    let dom = live.remove(vm_pick % live.len());
                    host.destroy(dom).unwrap();
                    model.remove(&dom);
                }
                Op::Rollback { vm_pick } => {
                    if live.is_empty() { continue; }
                    let dom = live[vm_pick % live.len()];
                    host.rollback(dom).unwrap();
                    // Rollback discards the delta: the model resets too.
                    model.get_mut(&dom).unwrap().clear();
                }
                Op::Reshare { vm_pick } => {
                    // Re-sharing reverted pages never changes guest-visible
                    // contents, so the model is untouched.
                    if live.is_empty() { continue; }
                    let dom = live[vm_pick % live.len()];
                    host.reshare_reverted_pages(dom).unwrap();
                }
            }

            // Report consistency and the host invariants after every step.
            prop_assert_eq!(host.audit(), Ok(()));
            let r = host.memory_report();
            prop_assert_eq!(r.used_frames + r.free_frames, r.total_frames);
            prop_assert_eq!(r.used_frames, r.image_frames + r.private_frames);
            prop_assert_eq!(r.live_domains as usize, live.len());
        }

        // Full verification of every surviving domain against the model.
        for dom in &live {
            for (&pfn, &value) in &model[dom] {
                prop_assert_eq!(host.read_page(*dom, pfn).unwrap(), value);
            }
            // Spot-check untouched pages still read image content.
            for pfn in [0u64, 1_000, 2_047] {
                if !model[dom].contains_key(&pfn) {
                    prop_assert_eq!(
                        host.read_page(*dom, pfn).unwrap(),
                        GuestProfile::boot_content(image.0, pfn)
                    );
                }
            }
        }

        // Exact frame conservation after tearing everything down.
        for dom in live {
            host.destroy(dom).unwrap();
        }
        prop_assert_eq!(host.audit(), Ok(()));
        prop_assert_eq!(host.memory_report().used_frames, baseline);
    }

    #[test]
    fn private_pages_equal_distinct_written_pfns(
        writes in proptest::collection::vec((0u64..2048, any::<u64>()), 1..300),
    ) {
        let mut host = Host::new(100_000).with_overhead_pages(0);
        let image = host.create_reference_image("prop", tiny_profile()).unwrap();
        let (dom, _) = host.flash_clone(image).unwrap();
        let mut distinct = std::collections::HashSet::new();
        for (pfn, value) in writes {
            host.write_page(dom, pfn, value).unwrap();
            distinct.insert(pfn);
        }
        prop_assert_eq!(host.audit(), Ok(()));
        let d = host.domain(dom).unwrap();
        prop_assert_eq!(d.private_pages(), distinct.len() as u64);
        prop_assert_eq!(d.cow_faults(), distinct.len() as u64);
        prop_assert_eq!(d.shared_pages(), 2_048 - distinct.len() as u64);
    }

    #[test]
    fn sibling_clones_never_observe_each_other(
        writes_a in proptest::collection::vec((0u64..256, any::<u64>()), 1..50),
        writes_b in proptest::collection::vec((0u64..256, any::<u64>()), 1..50),
    ) {
        let mut host = Host::new(100_000).with_overhead_pages(0);
        let image = host.create_reference_image("prop", tiny_profile()).unwrap();
        let (a, _) = host.flash_clone(image).unwrap();
        let (b, _) = host.flash_clone(image).unwrap();
        let mut model_a = HashMap::new();
        let mut model_b = HashMap::new();
        // Interleave the two domains' writes.
        let max = writes_a.len().max(writes_b.len());
        for i in 0..max {
            if let Some(&(pfn, v)) = writes_a.get(i) {
                host.write_page(a, pfn, v).unwrap();
                model_a.insert(pfn, v);
            }
            if let Some(&(pfn, v)) = writes_b.get(i) {
                host.write_page(b, pfn, v).unwrap();
                model_b.insert(pfn, v);
            }
        }
        prop_assert_eq!(host.audit(), Ok(()));
        for pfn in 0..256u64 {
            let expect_a =
                model_a.get(&pfn).copied().unwrap_or_else(|| GuestProfile::boot_content(image.0, pfn));
            let expect_b =
                model_b.get(&pfn).copied().unwrap_or_else(|| GuestProfile::boot_content(image.0, pfn));
            prop_assert_eq!(host.read_page(a, pfn).unwrap(), expect_a);
            prop_assert_eq!(host.read_page(b, pfn).unwrap(), expect_b);
        }
    }
}

/// One step of the mixed lifecycle sequence: every operation that moves
/// frame references between images, overrides and tails.
#[derive(Clone, Debug)]
enum LifecycleOp {
    Clone { image_pick: usize },
    FullCopy { image_pick: usize },
    Write { vm_pick: usize, pfn: u64, value: u64 },
    Destroy { vm_pick: usize },
    Rollback { vm_pick: usize },
    Reshare { vm_pick: usize },
    Merge,
    Snapshot { vm_pick: usize },
    Crash,
}

fn arb_lifecycle_op() -> impl Strategy<Value = LifecycleOp> {
    prop_oneof![
        3 => any::<usize>().prop_map(|image_pick| LifecycleOp::Clone { image_pick }),
        1 => any::<usize>().prop_map(|image_pick| LifecycleOp::FullCopy { image_pick }),
        // Few distinct values, so pages revert to image content and
        // clones write identical pages for merge to find.
        8 => (any::<usize>(), 0u64..64, 0u64..4)
            .prop_map(|(vm_pick, pfn, value)| LifecycleOp::Write { vm_pick, pfn, value }),
        1 => any::<usize>().prop_map(|vm_pick| LifecycleOp::Destroy { vm_pick }),
        1 => any::<usize>().prop_map(|vm_pick| LifecycleOp::Rollback { vm_pick }),
        1 => any::<usize>().prop_map(|vm_pick| LifecycleOp::Reshare { vm_pick }),
        1 => Just(LifecycleOp::Merge),
        1 => any::<usize>().prop_map(|vm_pick| LifecycleOp::Snapshot { vm_pick }),
        1 => Just(LifecycleOp::Crash),
    ]
}

/// A live domain in the model: the image it was provisioned from and its
/// guest-visible writes relative to the first image's boot content.
struct ModelDomain {
    id: DomainId,
    image: usize,
    pages: HashMap<u64, u64>,
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn audit_holds_under_mixed_lifecycle_ops(
        ops in proptest::collection::vec(arb_lifecycle_op(), 1..120),
    ) {
        let mut host = Host::new(400_000).with_overhead_pages(8);
        let first = host.create_reference_image("prop", tiny_profile()).unwrap();
        // Per image, its contents as writes over the first image.
        let mut images: Vec<(ImageId, HashMap<u64, u64>)> = vec![(first, HashMap::new())];
        let mut live: Vec<ModelDomain> = Vec::new();
        let expect = |pages: &HashMap<u64, u64>, pfn: u64| {
            pages.get(&pfn).copied().unwrap_or_else(|| GuestProfile::boot_content(first.0, pfn))
        };

        for op in ops {
            match op {
                LifecycleOp::Clone { image_pick } | LifecycleOp::FullCopy { image_pick } => {
                    let image = image_pick % images.len();
                    let id = if matches!(op, LifecycleOp::Clone { .. }) {
                        host.flash_clone(images[image].0).unwrap().0
                    } else {
                        host.full_copy_clone(images[image].0).unwrap().0
                    };
                    live.push(ModelDomain { id, image, pages: images[image].1.clone() });
                }
                LifecycleOp::Write { vm_pick, pfn, value } => {
                    if live.is_empty() { continue; }
                    let pick = vm_pick % live.len();
                    let dom = &mut live[pick];
                    host.write_page(dom.id, pfn, value).unwrap();
                    dom.pages.insert(pfn, value);
                }
                LifecycleOp::Destroy { vm_pick } => {
                    if live.is_empty() { continue; }
                    let dom = live.remove(vm_pick % live.len());
                    host.destroy(dom.id).unwrap();
                }
                LifecycleOp::Rollback { vm_pick } => {
                    if live.is_empty() { continue; }
                    let pick = vm_pick % live.len();
                    let dom = &mut live[pick];
                    host.rollback(dom.id).unwrap();
                    dom.pages = images[dom.image].1.clone();
                }
                LifecycleOp::Reshare { vm_pick } => {
                    if live.is_empty() { continue; }
                    host.reshare_reverted_pages(live[vm_pick % live.len()].id).unwrap();
                }
                LifecycleOp::Merge => {
                    host.scan_and_merge().unwrap();
                }
                LifecycleOp::Snapshot { vm_pick } => {
                    if live.is_empty() { continue; }
                    let dom = &live[vm_pick % live.len()];
                    let image = host.snapshot_domain(dom.id, "snap").unwrap();
                    images.push((image, dom.pages.clone()));
                }
                LifecycleOp::Crash => {
                    prop_assert_eq!(host.crash(), live.len() as u64);
                    host.revive();
                    live.clear();
                }
            }
            prop_assert_eq!(host.audit(), Ok(()));
            prop_assert_eq!(host.live_domains(), live.len());
        }

        // Every domain reads exactly its model, through every page.
        for dom in &live {
            for pfn in 0..2_048u64 {
                prop_assert_eq!(host.read_page(dom.id, pfn).unwrap(), expect(&dom.pages, pfn));
            }
        }
        for dom in live {
            host.destroy(dom.id).unwrap();
        }
        prop_assert_eq!(host.audit(), Ok(()));
    }
}
