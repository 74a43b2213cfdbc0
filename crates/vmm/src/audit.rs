//! Host invariants checked by code: frame reference counts, the free list,
//! and each domain's sparse p2m against its reference image.
//!
//! [`Host::audit`] runs these checks on a live host, and
//! [`Host::restore_state`] runs them on every decoded checkpoint before
//! accepting it, so a corrupted payload is rejected instead of panicking
//! later in the frame table.
//!
//! [`Host::audit`]: crate::host::Host::audit
//! [`Host::restore_state`]: crate::host::Host::restore_state

use std::collections::BTreeMap;
use std::sync::Arc;

use crate::domain::{Domain, DomainId};
use crate::frame::{FrameId, FrameTable};
use crate::snapshot::{ImageId, ReferenceImage};

/// One broken host invariant.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum AuditViolation {
    /// An image, override or tail entry names a frame that is not live.
    DeadFrame {
        /// The frame.
        frame: FrameId,
    },
    /// A live frame's refcount differs from the references held on it:
    /// one per image slot, override and tail entry naming it.
    RefcountMismatch {
        /// The frame.
        frame: FrameId,
        /// Its recorded reference count.
        refcount: u32,
        /// The references actually held.
        expected: u32,
    },
    /// A writable mapping names a frame that something else also holds.
    SharedWritable {
        /// The mapping domain.
        domain: DomainId,
        /// The writable pfn.
        pfn: u64,
    },
    /// A free-list entry is live, out of the table, or listed twice.
    BadFreeEntry {
        /// The listed frame.
        frame: FrameId,
    },
    /// Dead frame slots that are missing from the free list.
    LostFrames {
        /// Dead slots not on the free list.
        count: u64,
    },
    /// An override is not below the base length, or not in strictly
    /// ascending pfn order.
    OverrideOutOfRange {
        /// The domain.
        domain: DomainId,
        /// The override's pfn.
        pfn: u64,
    },
    /// An override equals the read-only base mapping it overrides.
    RedundantOverride {
        /// The domain.
        domain: DomainId,
        /// The override's pfn.
        pfn: u64,
    },
    /// A domain's base is neither empty nor its image's frame list, or
    /// its image does not exist.
    BaseMismatch {
        /// The domain.
        domain: DomainId,
    },
    /// An id allocator would hand out an id that is already live.
    StaleIdAllocator,
}

/// Checks every host invariant over the given state; the first violation
/// found is returned.
pub(crate) fn audit_parts(
    frames: &FrameTable,
    images: &BTreeMap<ImageId, ReferenceImage>,
    domains: &BTreeMap<DomainId, Domain>,
    next_image: u64,
    next_domain: u64,
) -> Result<(), AuditViolation> {
    let stale = images.keys().next_back().is_some_and(|id| id.0 >= next_image)
        || domains.keys().next_back().is_some_and(|id| id.0 >= next_domain);
    if stale {
        return Err(AuditViolation::StaleIdAllocator);
    }
    let mut expected = vec![0u32; frames.table_len() as usize];
    let mut hold = |frame: FrameId| -> Result<(), AuditViolation> {
        frames.live_refcount(frame).ok_or(AuditViolation::DeadFrame { frame })?;
        let held = &mut expected[frame.0 as usize];
        *held = held.saturating_add(1);
        Ok(())
    };
    for image in images.values() {
        image.frames().iter().try_for_each(|&frame| hold(frame))?;
    }
    for (&domain, dom) in domains {
        let space = dom.space();
        let base = space.base();
        let image = images.get(&dom.image()).ok_or(AuditViolation::BaseMismatch { domain })?;
        let attached = Arc::ptr_eq(base, image.shared_frames()) || **base == *image.frames();
        if !base.is_empty() && !attached {
            return Err(AuditViolation::BaseMismatch { domain });
        }
        let mut next = 0;
        for (pfn, pte) in space.overrides() {
            if pfn < next || pfn >= base.len() as u64 {
                return Err(AuditViolation::OverrideOutOfRange { domain, pfn });
            }
            if !pte.writable && base[pfn as usize] == pte.frame {
                return Err(AuditViolation::RedundantOverride { domain, pfn });
            }
            next = pfn + 1;
        }
        for (pfn, pte) in space.held_entries(u64::MAX) {
            hold(pte.frame)?;
            if pte.writable && frames.live_refcount(pte.frame) != Some(1) {
                return Err(AuditViolation::SharedWritable { domain, pfn });
            }
        }
    }
    let mut live = 0u64;
    for (frame, refcount) in frames.live_frames() {
        live += 1;
        let expected = expected[frame.0 as usize];
        // A live frame nothing holds is a leak, whatever its count says.
        if expected == 0 || refcount != expected {
            return Err(AuditViolation::RefcountMismatch { frame, refcount, expected });
        }
    }
    let mut listed = vec![false; expected.len()];
    for &index in frames.free_list() {
        let frame = FrameId(index);
        let slot = usize::try_from(index).ok().and_then(|i| listed.get_mut(i));
        match slot {
            Some(seen) if !*seen && frames.live_refcount(frame).is_none() => *seen = true,
            _ => return Err(AuditViolation::BadFreeEntry { frame }),
        }
    }
    let lost = frames.table_len() - live - frames.free_list().len() as u64;
    if lost != 0 {
        return Err(AuditViolation::LostFrames { count: lost });
    }
    Ok(())
}
