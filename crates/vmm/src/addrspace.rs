//! Per-domain pseudo-physical address spaces (the p2m map).
//!
//! Each domain sees a contiguous pseudo-physical frame space `0..size`.
//! Every entry maps to a machine frame plus a writable bit. Delta
//! virtualization is exactly this indirection: many domains map the same
//! machine frame read-only, and the first write by any of them triggers a
//! CoW fault that remaps that single entry.
//!
//! The map is itself a delta over the reference image, in three parts:
//!
//! * `base` — the image's frame list, shared by every clone of it. A pfn
//!   below `base.len()` with no override maps `base[pfn]` read-only.
//! * `delta` — sorted overrides for the pfns below `base.len()` whose
//!   mapping differs from the base (CoW copies, merged or frozen frames).
//! * `tail` — dense entries for the pfns from `base.len()` up (the
//!   per-domain overhead pages).
//!
//! A flash clone therefore costs its overhead pages, not its image size.
//! Full-copy and cold-boot domains have an empty base and keep every entry
//! in the tail.
//!
//! **Refcount rule.** A base mapping holds no frame reference: the image's
//! single reference pins the frame, and images are never freed. Every
//! override and every tail entry holds one reference.

use std::sync::Arc;

use crate::error::VmmError;
use crate::frame::{FrameId, FrameTable};

/// One p2m entry: which machine frame, and whether writes are permitted
/// without a fault.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Pte {
    /// The backing machine frame.
    pub frame: FrameId,
    /// Whether the domain owns the frame exclusively.
    pub writable: bool,
}

/// One override of a base mapping, packed into 16 bytes.
#[derive(Clone, Copy, Debug)]
struct Override {
    frame: FrameId,
    pfn: u32,
    writable: bool,
}

impl Override {
    fn pte(self) -> Pte {
        Pte { frame: self.frame, writable: self.writable }
    }
}

/// A pseudo-physical → machine mapping for one domain.
#[derive(Clone, Debug)]
pub struct AddressSpace {
    base: Arc<[FrameId]>,
    delta: Vec<Override>,
    tail: Vec<Pte>,
}

impl AddressSpace {
    /// Builds a space with no base: every entry lives in the tail (the
    /// full-copy and cold-boot layout).
    #[must_use]
    pub fn from_entries(entries: Vec<Pte>) -> Self {
        AddressSpace { base: Arc::from([]), delta: Vec::new(), tail: entries }
    }

    /// Builds a flash clone's space: `base` mapped read-only, no overrides,
    /// then `tail`.
    ///
    /// # Panics
    ///
    /// Panics if `base` has more than `2^32` pages.
    #[must_use]
    pub(crate) fn over_base(base: Arc<[FrameId]>, tail: Vec<Pte>) -> Self {
        assert!(u32::try_from(base.len().saturating_sub(1)).is_ok(), "base pfns must fit u32");
        AddressSpace { base, delta: Vec::new(), tail }
    }

    /// Checkpoint support: rebuilds a space from its parts. Returns `None`
    /// unless the overrides are strictly ascending by pfn, all below
    /// `base.len()`, and none equals the read-only base mapping.
    #[must_use]
    pub(crate) fn from_parts(
        base: Arc<[FrameId]>,
        overrides: &[(u64, Pte)],
        tail: Vec<Pte>,
    ) -> Option<Self> {
        let mut delta = Vec::with_capacity(overrides.len());
        let mut next = 0u64;
        for &(pfn, pte) in overrides {
            let &frame = base.get(usize::try_from(pfn).ok()?)?;
            if pfn < next || (frame == pte.frame && !pte.writable) {
                return None;
            }
            delta.push(Override {
                frame: pte.frame,
                pfn: u32::try_from(pfn).ok()?,
                writable: pte.writable,
            });
            next = pfn + 1;
        }
        Some(AddressSpace { base, delta, tail })
    }

    /// The domain's memory size in pages.
    #[must_use]
    pub fn size(&self) -> u64 {
        (self.base.len() + self.tail.len()) as u64
    }

    /// The shared image frame list this space is a delta over (empty for
    /// full-copy and cold-boot domains).
    #[must_use]
    pub(crate) fn base(&self) -> &Arc<[FrameId]> {
        &self.base
    }

    /// The overrides of base mappings, in pfn order.
    pub(crate) fn overrides(&self) -> impl ExactSizeIterator<Item = (u64, Pte)> + '_ {
        self.delta.iter().map(|o| (u64::from(o.pfn), o.pte()))
    }

    /// The dense entries for pfns `base().len()..size()`.
    #[must_use]
    pub(crate) fn tail(&self) -> &[Pte] {
        &self.tail
    }

    fn find(&self, pfn: u64) -> Result<usize, usize> {
        self.delta.binary_search_by_key(&pfn, |o| u64::from(o.pfn))
    }

    fn bad_pfn(&self, pfn: u64) -> VmmError {
        VmmError::BadPfn { pfn, size: self.size() }
    }

    /// Looks up the entry for `pfn`.
    pub fn lookup(&self, pfn: u64) -> Result<Pte, VmmError> {
        let base_len = self.base.len() as u64;
        if pfn < base_len {
            return Ok(match self.find(pfn) {
                Ok(i) => self.delta[i].pte(),
                Err(_) => Pte { frame: self.base[pfn as usize], writable: false },
            });
        }
        self.tail.get((pfn - base_len) as usize).copied().ok_or_else(|| self.bad_pfn(pfn))
    }

    /// Whether `frame` is `pfn`'s base frame — mapped that way, the entry
    /// holds no frame reference.
    #[must_use]
    fn is_base(&self, pfn: u64, frame: FrameId) -> bool {
        usize::try_from(pfn).ok().and_then(|i| self.base.get(i)) == Some(&frame)
    }

    /// Replaces the entry for `pfn`. Mapping a pfn read-only back to its
    /// base frame deletes its override. Reference counts are the caller's.
    pub fn remap(&mut self, pfn: u64, pte: Pte) -> Result<(), VmmError> {
        let base_len = self.base.len() as u64;
        if pfn >= base_len {
            let err = self.bad_pfn(pfn);
            *self.tail.get_mut((pfn - base_len) as usize).ok_or(err)? = pte;
            return Ok(());
        }
        let to_base = !pte.writable && self.base[pfn as usize] == pte.frame;
        let entry = Override { frame: pte.frame, pfn: pfn as u32, writable: pte.writable };
        match (self.find(pfn), to_base) {
            (Ok(i), true) => {
                self.delta.remove(i);
            }
            (Ok(i), false) => self.delta[i] = entry,
            (Err(_), true) => {}
            (Err(i), false) => self.delta.insert(i, entry),
        }
        Ok(())
    }

    /// Resolves a guest write to `pfn`: returns the frame to write and
    /// whether a copy-on-write fault was taken to get it. A fault copies
    /// the read-only frame into a fresh private one; copying off a base
    /// mapping drops no reference, copying off a held entry drops its one.
    ///
    /// # Errors
    ///
    /// Returns [`VmmError::BadPfn`], or [`VmmError::OutOfMemory`] when the
    /// fault finds no free frame (the mapping is left unchanged).
    pub(crate) fn write_target(
        &mut self,
        pfn: u64,
        frames: &mut FrameTable,
    ) -> Result<(FrameId, bool), VmmError> {
        let base_len = self.base.len() as u64;
        if pfn >= base_len {
            let err = self.bad_pfn(pfn);
            let pte = self.tail.get_mut((pfn - base_len) as usize).ok_or(err)?;
            if !pte.writable {
                *pte = Pte { frame: frames.cow_copy(pte.frame)?, writable: true };
                return Ok((pte.frame, true));
            }
            return Ok((pte.frame, false));
        }
        match self.find(pfn) {
            Ok(i) => {
                let o = &mut self.delta[i];
                if o.writable {
                    return Ok((o.frame, false));
                }
                o.frame = frames.cow_copy(o.frame)?;
                o.writable = true;
                Ok((o.frame, true))
            }
            Err(i) => {
                let copy = frames.alloc(frames.read(self.base[pfn as usize]))?;
                self.delta.insert(i, Override { frame: copy, pfn: pfn as u32, writable: true });
                Ok((copy, true))
            }
        }
    }

    /// Maps `pfn` read-only to `frame` and moves the entry's reference with
    /// it: takes one on `frame` unless it is the pfn's base frame, and drops
    /// the one the replaced entry held, if any.
    pub(crate) fn map_shared(
        &mut self,
        pfn: u64,
        frame: FrameId,
        frames: &mut FrameTable,
    ) -> Result<(), VmmError> {
        let old = self.lookup(pfn)?;
        if !self.is_base(pfn, frame) {
            frames.share(frame);
        }
        if !self.is_base(pfn, old.frame) {
            frames.release(old.frame);
        }
        self.remap(pfn, Pte { frame, writable: false })
    }

    /// The entries below `limit` that hold a frame reference — overrides,
    /// then tail entries — in pfn order. Every other pfn below `limit`
    /// maps its base frame read-only.
    pub(crate) fn held_entries(&self, limit: u64) -> impl Iterator<Item = (u64, Pte)> + '_ {
        let base_len = self.base.len() as u64;
        let tail_len = limit.saturating_sub(base_len).min(self.tail.len() as u64) as usize;
        self.overrides().filter(move |&(pfn, _)| pfn < limit).chain(
            self.tail[..tail_len]
                .iter()
                .enumerate()
                .map(move |(i, &pte)| (base_len + i as u64, pte)),
        )
    }

    /// Counts entries the domain owns exclusively (its private pages).
    #[must_use]
    pub fn private_pages(&self) -> u64 {
        let delta = self.delta.iter().filter(|o| o.writable).count();
        let tail = self.tail.iter().filter(|pte| pte.writable).count();
        (delta + tail) as u64
    }

    /// Counts entries mapped read-only from a shared frame.
    #[must_use]
    pub fn shared_pages(&self) -> u64 {
        self.size() - self.private_pages()
    }

    /// Releases every held frame back to the table — overrides, then the
    /// tail, in pfn order — and empties the space.
    pub fn release_all(&mut self, frames: &mut FrameTable) {
        for o in self.delta.drain(..) {
            frames.release(o.frame);
        }
        for pte in self.tail.drain(..) {
            frames.release(pte.frame);
        }
        self.base = Arc::from([]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn space_with(frames: &mut FrameTable, n: u64) -> AddressSpace {
        let entries =
            (0..n).map(|i| Pte { frame: frames.alloc(i).unwrap(), writable: true }).collect();
        AddressSpace::from_entries(entries)
    }

    /// A 4-page image plus a 2-page tail over it.
    fn clone_space(frames: &mut FrameTable) -> AddressSpace {
        let base: Arc<[FrameId]> = (0..4).map(|i| frames.alloc(i).unwrap()).collect();
        let tail =
            (0..2).map(|_| Pte { frame: frames.alloc(0).unwrap(), writable: true }).collect();
        AddressSpace::over_base(base, tail)
    }

    #[test]
    fn lookup_in_and_out_of_range() {
        let mut ft = FrameTable::new(10);
        let space = space_with(&mut ft, 4);
        assert!(space.lookup(3).is_ok());
        assert_eq!(space.lookup(4).unwrap_err(), VmmError::BadPfn { pfn: 4, size: 4 });
        assert_eq!(space.size(), 4);
    }

    #[test]
    fn remap_changes_entry() {
        let mut ft = FrameTable::new(10);
        let mut space = space_with(&mut ft, 2);
        let new_frame = ft.alloc(99).unwrap();
        space.remap(1, Pte { frame: new_frame, writable: false }).unwrap();
        let pte = space.lookup(1).unwrap();
        assert_eq!(pte.frame, new_frame);
        assert!(!pte.writable);
        assert!(space.remap(5, Pte { frame: new_frame, writable: true }).is_err());
    }

    #[test]
    fn base_mappings_are_read_only_until_overridden() {
        let mut ft = FrameTable::new(10);
        let mut space = clone_space(&mut ft);
        assert_eq!(space.size(), 6);
        let base1 = space.base()[1];
        assert_eq!(space.lookup(1).unwrap(), Pte { frame: base1, writable: false });
        assert!(space.is_base(1, base1));
        assert!(space.lookup(5).unwrap().writable, "tail entries are dense");
        assert_eq!(space.lookup(6).unwrap_err(), VmmError::BadPfn { pfn: 6, size: 6 });

        let copy = ft.alloc(7).unwrap();
        space.remap(3, Pte { frame: copy, writable: true }).unwrap();
        space.remap(1, Pte { frame: copy, writable: false }).unwrap();
        assert_eq!(space.overrides().map(|(pfn, _)| pfn).collect::<Vec<_>>(), [1, 3]);
        assert_eq!(space.lookup(3).unwrap(), Pte { frame: copy, writable: true });
        // Mapping back to the base frame deletes the override.
        space.remap(1, Pte { frame: base1, writable: false }).unwrap();
        assert_eq!(space.overrides().len(), 1);
        assert_eq!(space.held_entries(4).map(|(pfn, _)| pfn).collect::<Vec<_>>(), [3]);
        assert_eq!(space.held_entries(6).map(|(pfn, _)| pfn).collect::<Vec<_>>(), [3, 4, 5]);
    }

    #[test]
    fn map_shared_moves_the_reference_only_off_the_base() {
        let mut ft = FrameTable::new(10);
        let mut space = clone_space(&mut ft);
        let (base0, base2) = (space.base()[0], space.base()[2]);
        space.map_shared(2, base0, &mut ft).unwrap();
        assert_eq!(ft.refcount(base0), 2, "a foreign image frame is a held override");
        assert_eq!(ft.refcount(base2), 1, "the replaced base mapping held nothing");
        space.map_shared(2, base2, &mut ft).unwrap();
        assert_eq!(ft.refcount(base0), 1, "the override's reference is dropped");
        assert_eq!(ft.refcount(base2), 1, "the base mapping holds no reference");
        assert_eq!(space.overrides().len(), 0);
        let tail_frame = space.tail()[0].frame;
        space.map_shared(4, base0, &mut ft).unwrap();
        assert_eq!(ft.live_refcount(tail_frame), None, "the tail entry's frame is freed");
        assert!(space.map_shared(9, base0, &mut ft).is_err());
        assert_eq!(ft.refcount(base0), 2, "a rejected pfn moves no reference");
    }

    #[test]
    fn from_parts_rejects_malformed_overrides() {
        let mut ft = FrameTable::new(10);
        let base: Arc<[FrameId]> = (0..4).map(|i| ft.alloc(i).unwrap()).collect();
        let other = Pte { frame: ft.alloc(9).unwrap(), writable: true };
        let ok = [(1, other), (3, other)];
        assert!(AddressSpace::from_parts(base.clone(), &ok, vec![]).is_some());
        for bad in [
            vec![(3, other), (1, other)],
            vec![(1, other), (1, other)],
            vec![(4, other)],
            vec![(2, Pte { frame: base[2], writable: false })],
        ] {
            assert!(AddressSpace::from_parts(base.clone(), &bad, vec![]).is_none(), "{bad:?}");
        }
    }

    #[test]
    fn private_and_shared_counts() {
        let mut ft = FrameTable::new(10);
        let shared = ft.alloc(0).unwrap();
        ft.share(shared);
        ft.share(shared);
        let private = ft.alloc(1).unwrap();
        let space = AddressSpace::from_entries(vec![
            Pte { frame: shared, writable: false },
            Pte { frame: shared, writable: false },
            Pte { frame: private, writable: true },
        ]);
        assert_eq!(space.private_pages(), 1);
        assert_eq!(space.shared_pages(), 2);
    }

    #[test]
    fn release_all_returns_frames() {
        let mut ft = FrameTable::new(5);
        let mut space = space_with(&mut ft, 5);
        assert_eq!(ft.free_frames(), 0);
        space.release_all(&mut ft);
        assert_eq!(ft.free_frames(), 5);
        assert_eq!(space.size(), 0);
    }

    #[test]
    fn release_all_skips_base_mappings() {
        let mut ft = FrameTable::new(10);
        let mut space = clone_space(&mut ft);
        let copy = ft.alloc(5).unwrap();
        space.remap(2, Pte { frame: copy, writable: true }).unwrap();
        space.release_all(&mut ft);
        assert_eq!(ft.used_frames(), 4, "only the image frames stay live");
        assert_eq!(ft.refcount(FrameId(0)), 1);
    }
}
