//! Copy-on-write paged record storage.
//!
//! The graph's node and relationship tables, and each label's membership
//! set, are split into fixed-size chunks held behind [`Arc`]s. Cloning a
//! [`PagedVec`] (or [`LabelSet`]) copies only the page *table* — a vector
//! of pointers — so `Graph::clone` is proportional to the number of pages
//! (graph_size / [`PAGE_SIZE`]) in pointer bumps, not to the number of
//! records in allocations. Mutation goes through [`Arc::make_mut`], which
//! materializes a private copy of just the touched page on first write
//! (path-copying).
//!
//! The copy-on-write is **two-level**: a page is a vector of
//! `Option<Arc<T>>` slots, so path-copying a page clones [`PAGE_SIZE`]
//! *pointers* (a memcpy plus refcount bumps, well under a microsecond),
//! and only the one record actually written gets a private deep copy via
//! a second `Arc::make_mut`. Applying a [`crate::delta::DeltaBatch`] of
//! `k` ops therefore deep-copies O(k) *records* — not O(k) full pages of
//! records — which is what keeps apply cost flat across graph scales
//! even when a batch's endpoints scatter over many pages.
//!
//! [`PAGE_SIZE`] = 16 balances the two costs it trades off: the
//! pointer-copy cost of one path-copied page (16 `Arc` clones, a
//! 128-byte memcpy plus refcount bumps — well under a microsecond even
//! from cold memory) and the page-table length a full clone must copy
//! (a million-node graph is a ~62k-pointer table, a sub-millisecond
//! clone). The choice deliberately favors the write side: with records
//! behind their own `Arc`s a page copy touches one scattered cache line
//! per slot (each record's refcount), so small pages are what keep
//! apply latency flat across graph scales when a `DeltaBatch`'s
//! endpoints scatter widely. The table-length cost this trades away
//! stays modest because a clone walks the table sequentially
//! (hardware-prefetchable) while page copies chase pointers.

use crate::graph::NodeId;
use serde::{Content, Deserialize, Serialize};
use std::collections::BTreeSet;
use std::sync::{Arc, OnceLock};

/// Records per page. See the module docs for the rationale.
pub const PAGE_SIZE: usize = 16;

/// Node ids per [`LabelSet`] shard. Wider than [`PAGE_SIZE`] because a
/// shard copy duplicates plain `NodeId`s inside one allocation — cheap
/// per element, no pointer chasing — while every shard is one more `Arc`
/// a full clone must bump. Membership writes also cluster at the id
/// tail (new nodes take fresh ids), so shard width barely affects write
/// amplification.
pub const LABEL_SHARD: usize = 256;

/// A paged, copy-on-write vector of optional record slots.
///
/// Semantically identical to the `Vec<Option<T>>` it replaces: slots are
/// appended with [`PagedVec::push`], tombstoned with [`PagedVec::take`],
/// and indexed by their append position (ids are never reused). The
/// difference is the cost model — see the module docs.
#[derive(Debug)]
pub struct PagedVec<T> {
    /// Page table: `pages[p]` holds slots `[p * PAGE_SIZE, …)`. Every
    /// page but the last holds exactly `PAGE_SIZE` slots. Records sit
    /// behind their own `Arc` so a page copy clones pointers, not
    /// records (two-level COW — see the module docs).
    pages: Vec<Arc<Vec<Option<Arc<T>>>>>,
    /// Total slots (live + tombstoned) — the next append position.
    len: usize,
}

impl<T> Clone for PagedVec<T> {
    /// Copies the page table with some append slack. A derived clone
    /// would size the table exactly (`Vec::clone` allocates capacity ==
    /// len), making the *first* append after a COW clone re-allocate and
    /// memcpy the whole table — an O(pages) cost smuggled into what must
    /// be an O(delta) apply. Reserving the slack here costs nothing
    /// extra (the clone allocates and copies the table either way).
    fn clone(&self) -> Self {
        let mut pages = Vec::with_capacity(self.pages.len() + self.pages.len() / 8 + 4);
        pages.extend(self.pages.iter().cloned());
        PagedVec {
            pages,
            len: self.len,
        }
    }
}

impl<T> Default for PagedVec<T> {
    fn default() -> Self {
        PagedVec {
            pages: Vec::new(),
            len: 0,
        }
    }
}

impl<T: Clone> PagedVec<T> {
    /// An empty table.
    pub fn new() -> Self {
        PagedVec {
            pages: Vec::new(),
            len: 0,
        }
    }

    /// Total slots ever appended (live + tombstoned).
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no slot was ever appended.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The live record at `i`, or `None` for tombstoned/out-of-range.
    pub fn get(&self, i: usize) -> Option<&T> {
        self.pages
            .get(i / PAGE_SIZE)?
            .get(i % PAGE_SIZE)?
            .as_deref()
    }

    /// Mutable access to the live record at `i`. Path-copies the touched
    /// page's pointer table if it is shared with other clones, and
    /// deep-copies only the one record being written; every other page
    /// and record stays shared untouched.
    pub fn get_mut(&mut self, i: usize) -> Option<&mut T> {
        // Check existence through the shared reference first, so a miss
        // (tombstoned or out of range) never forces a page copy.
        self.get(i)?;
        Arc::make_mut(self.pages.get_mut(i / PAGE_SIZE)?)
            .get_mut(i % PAGE_SIZE)?
            .as_mut()
            .map(Arc::make_mut)
    }

    /// Tombstones slot `i`, returning the record it held. Path-copies the
    /// touched page's pointer table; a slot that is already empty costs
    /// nothing.
    pub fn take(&mut self, i: usize) -> Option<T> {
        self.get(i)?;
        Arc::make_mut(self.pages.get_mut(i / PAGE_SIZE)?)
            .get_mut(i % PAGE_SIZE)?
            .take()
            .map(|a| Arc::try_unwrap(a).unwrap_or_else(|a| (*a).clone()))
    }

    /// Appends a live record, returning its slot index. Path-copies only
    /// the final (partially filled) page.
    pub fn push(&mut self, value: T) -> usize {
        let i = self.len;
        if i.is_multiple_of(PAGE_SIZE) {
            self.pages.push(Arc::new(Vec::with_capacity(PAGE_SIZE)));
        }
        Arc::make_mut(self.pages.last_mut().expect("page pushed above"))
            .push(Some(Arc::new(value)));
        self.len += 1;
        i
    }

    /// Iterates every slot in append order (tombstones included, as
    /// `None`) — the same shape the flat `Vec<Option<T>>` iterated.
    pub fn iter(&self) -> impl Iterator<Item = Option<&T>> {
        self.pages
            .iter()
            .flat_map(|p| p.iter().map(Option::as_deref))
    }

    /// Rebuilds from a flat slot list, re-chunking into `PAGE_SIZE` pages.
    pub fn from_slots(slots: Vec<Option<T>>) -> Self {
        let len = slots.len();
        let mut pages = Vec::with_capacity(len.div_ceil(PAGE_SIZE));
        let mut it = slots.into_iter().map(|s| s.map(Arc::new));
        loop {
            let chunk: Vec<Option<Arc<T>>> = it.by_ref().take(PAGE_SIZE).collect();
            if chunk.is_empty() {
                break;
            }
            pages.push(Arc::new(chunk));
        }
        PagedVec { pages, len }
    }

    /// Number of pages in the table.
    pub fn page_count(&self) -> usize {
        self.pages.len()
    }

    /// Pages whose `Arc` is shared with at least one other clone — the
    /// memory this table *retains* but does not exclusively own.
    pub fn shared_page_count(&self) -> usize {
        self.pages
            .iter()
            .filter(|p| Arc::strong_count(p) > 1)
            .count()
    }

    /// Approximate heap bytes reachable from this table, using `f` to
    /// size one record's own heap payload. Counts each page and record
    /// once whether shared or owned (retained-set semantics).
    pub fn heap_bytes(&self, mut f: impl FnMut(&T) -> usize) -> usize {
        let slot = std::mem::size_of::<Option<Arc<T>>>();
        let rec = std::mem::size_of::<T>();
        self.pages
            .iter()
            .map(|p| {
                std::mem::size_of::<Vec<Option<Arc<T>>>>()
                    + p.capacity() * slot
                    + p.iter().flatten().map(|r| rec + f(r)).sum::<usize>()
            })
            .sum::<usize>()
            + self.pages.capacity() * std::mem::size_of::<Arc<Vec<Option<Arc<T>>>>>()
    }

    /// Materializes a private copy of every shared page and record,
    /// emulating the deep clone the pre-paged store performed on each
    /// ingest. Used by benches to measure what path-copying saves; never
    /// on a hot path.
    pub fn make_owned(&mut self) {
        for p in &mut self.pages {
            for r in Arc::make_mut(p).iter_mut().flatten() {
                Arc::make_mut(r);
            }
        }
    }
}

impl<T: Serialize> Serialize for PagedVec<T> {
    /// Serializes the paged layout: `{"page_size": N, "pages": [[…] …]}`.
    /// Tombstones serialize as `null`, exactly as the flat layout did.
    fn serialize(&self) -> Content {
        Content::Map(vec![
            ("page_size".to_string(), Content::U64(PAGE_SIZE as u64)),
            (
                "pages".to_string(),
                Content::Seq(
                    self.pages
                        .iter()
                        .map(|p| {
                            Content::Seq(
                                p.iter()
                                    .map(|slot| match slot.as_deref() {
                                        Some(v) => v.serialize(),
                                        None => Content::Null,
                                    })
                                    .collect(),
                            )
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

impl<T: Deserialize + Clone> Deserialize for PagedVec<T> {
    /// Reads the paged map above. The slots are re-chunked to the current
    /// [`PAGE_SIZE`], so files written with a different page size load.
    fn deserialize(c: &Content) -> Result<Self, serde::Error> {
        let Some(Content::Seq(pages)) = c.get("pages") else {
            return Err(serde::Error::custom("expected a paged map with `pages`"));
        };
        let mut slots = Vec::new();
        for page in pages {
            let mut chunk: Vec<Option<T>> = Deserialize::deserialize(page)?;
            slots.append(&mut chunk);
        }
        Ok(PagedVec::from_slots(slots))
    }
}

/// One label's membership set, sharded by node-id range.
///
/// Shard `s` holds the member ids in `[s * LABEL_SHARD,
/// (s+1) * LABEL_SHARD)`, each behind an `Arc`. Inserting or removing
/// one node path-copies one shard of at most [`LABEL_SHARD`] ids;
/// iteration walks shards in order, so members still come out ascending
/// exactly like the flat `BTreeSet` they replace.
#[derive(Debug, Clone, Default)]
pub struct LabelSet {
    shards: Vec<Arc<BTreeSet<NodeId>>>,
    len: usize,
}

/// The shared all-empty shard: growing a shard table to reach a high node
/// id fills the gap with refcount bumps, not allocations.
fn empty_shard() -> Arc<BTreeSet<NodeId>> {
    static EMPTY: OnceLock<Arc<BTreeSet<NodeId>>> = OnceLock::new();
    Arc::clone(EMPTY.get_or_init(|| Arc::new(BTreeSet::new())))
}

impl LabelSet {
    /// An empty membership set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of member nodes. O(1) — maintained on mutation.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no node carries the label.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Adds `id`, path-copying only its shard. Returns whether it was new.
    pub fn insert(&mut self, id: NodeId) -> bool {
        let s = id.0 as usize / LABEL_SHARD;
        while self.shards.len() <= s {
            self.shards.push(empty_shard());
        }
        let added = Arc::make_mut(&mut self.shards[s]).insert(id);
        if added {
            self.len += 1;
        }
        added
    }

    /// Removes `id`, path-copying only its shard. Returns whether it was
    /// present; an absent id costs nothing.
    pub fn remove(&mut self, id: NodeId) -> bool {
        let s = id.0 as usize / LABEL_SHARD;
        let Some(shard) = self.shards.get_mut(s) else {
            return false;
        };
        if !shard.contains(&id) {
            return false;
        }
        Arc::make_mut(shard).remove(&id);
        self.len -= 1;
        true
    }

    /// Member ids, ascending.
    pub fn iter(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.shards.iter().flat_map(|s| s.iter().copied())
    }

    /// Number of shards in the table (including empty gap shards).
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Shards shared with at least one other clone (the all-empty filler
    /// shard counts once it has more than one global user).
    pub fn shared_shard_count(&self) -> usize {
        self.shards
            .iter()
            .filter(|s| Arc::strong_count(s) > 1)
            .count()
    }

    /// Approximate heap bytes reachable from this set.
    pub fn heap_bytes(&self) -> usize {
        self.shards.capacity() * std::mem::size_of::<Arc<BTreeSet<NodeId>>>()
            + self
                .shards
                .iter()
                .map(|s| s.len() * std::mem::size_of::<NodeId>() * 2)
                .sum::<usize>()
    }

    /// Materializes private copies of all shared shards (bench-only; see
    /// [`PagedVec::make_owned`]).
    pub fn make_owned(&mut self) {
        for s in &mut self.shards {
            Arc::make_mut(s);
        }
    }
}

impl Serialize for LabelSet {
    /// Serializes flat — a sorted id array. Loading goes through the
    /// graph, which checks each id against the node table before it
    /// builds the set.
    fn serialize(&self) -> Content {
        Content::Seq(self.iter().map(|id| id.serialize()).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_get_take_roundtrip() {
        let mut v: PagedVec<String> = PagedVec::new();
        for i in 0..600 {
            assert_eq!(v.push(format!("r{i}")), i);
        }
        assert_eq!(v.len(), 600);
        assert_eq!(v.page_count(), 600usize.div_ceil(PAGE_SIZE));
        assert_eq!(v.get(0).map(String::as_str), Some("r0"));
        assert_eq!(v.get(599).map(String::as_str), Some("r599"));
        assert!(v.get(600).is_none());
        assert_eq!(v.take(5), Some("r5".to_string()));
        assert!(v.get(5).is_none());
        assert!(v.take(5).is_none());
        // Tombstones stay as holes in iteration.
        assert_eq!(v.iter().count(), 600);
        assert_eq!(v.iter().filter(|s| s.is_some()).count(), 599);
        // len is append position, not live count.
        assert_eq!(v.push("again".to_string()), 600);
    }

    #[test]
    fn clone_shares_pages_and_mutation_path_copies() {
        let mut v: PagedVec<u64> = PagedVec::new();
        for i in 0..1024 {
            v.push(i);
        }
        let snapshot = v.clone();
        let pages = 1024 / PAGE_SIZE;
        assert_eq!(v.shared_page_count(), pages);

        // Mutating one record un-shares exactly one page.
        *v.get_mut(700).unwrap() = 9999;
        assert_eq!(v.shared_page_count(), pages - 1);
        assert_eq!(snapshot.shared_page_count(), pages - 1);

        // The snapshot still sees the old value; the mutant the new one.
        assert_eq!(snapshot.get(700), Some(&700));
        assert_eq!(v.get(700), Some(&9999));

        // Appending touches only the (new) last page.
        let before = snapshot.clone();
        let mut w = before.clone();
        w.push(1);
        assert_eq!(before.get(1023), Some(&1023));
        assert_eq!(before.len(), 1024);
    }

    #[test]
    fn miss_paths_do_not_copy_shared_pages() {
        let mut v: PagedVec<u64> = PagedVec::new();
        for i in 0..300 {
            v.push(i);
        }
        v.take(10);
        let _snap = v.clone();
        let pages = 300usize.div_ceil(PAGE_SIZE);
        assert_eq!(v.shared_page_count(), pages);
        assert!(v.get_mut(10).is_none(), "tombstoned");
        assert!(v.get_mut(5000).is_none(), "out of range");
        assert!(v.take(10).is_none());
        assert_eq!(v.shared_page_count(), pages, "miss forced a page copy");
    }

    #[test]
    fn serde_pages_roundtrip_and_flat_layout_rejected() {
        let mut v: PagedVec<u64> = PagedVec::new();
        for i in 0..520 {
            v.push(i);
        }
        v.take(3);
        let paged = v.serialize();
        let back = PagedVec::<u64>::deserialize(&paged).unwrap();
        assert_eq!(back.len(), v.len());
        assert!(back.get(3).is_none());
        assert_eq!(back.get(519), Some(&519));
        assert_eq!(back.serialize(), paged, "round-trip not canonical");

        // A flat slot array is not the paged layout.
        let flat = Content::Seq(vec![Content::U64(0), Content::Null]);
        assert!(PagedVec::<u64>::deserialize(&flat).is_err());
    }

    #[test]
    fn label_set_insert_remove_iterates_ascending() {
        let mut s = LabelSet::new();
        for id in [700u64, 3, 300, 3, 0] {
            s.insert(NodeId(id));
        }
        assert_eq!(s.len(), 4);
        let ids: Vec<u64> = s.iter().map(|n| n.0).collect();
        assert_eq!(ids, vec![0, 3, 300, 700]);
        assert!(s.remove(NodeId(300)));
        assert!(!s.remove(NodeId(300)));
        assert_eq!(s.len(), 3);
        assert_eq!(s.shard_count(), 700 / LABEL_SHARD + 1);
    }

    #[test]
    fn label_set_clone_shares_and_path_copies_one_shard() {
        let mut s = LabelSet::new();
        for id in 0..1000u64 {
            s.insert(NodeId(id));
        }
        let snap = s.clone();
        assert_eq!(s.shared_shard_count(), s.shard_count());
        s.insert(NodeId(1001));
        // Only the shard holding 1001 was copied (it was the last one).
        assert_eq!(snap.len(), 1000);
        assert_eq!(s.len(), 1001);
        assert!(s.shared_shard_count() >= s.shard_count() - 1);
    }

    #[test]
    fn label_set_serde_is_flat_and_sorted() {
        let mut s = LabelSet::new();
        s.insert(NodeId(900));
        s.insert(NodeId(2));
        let c = s.serialize();
        match &c {
            Content::Seq(items) => assert_eq!(items.len(), 2),
            other => panic!("expected flat sequence, got {other:?}"),
        }
        let ids: Vec<NodeId> = Deserialize::deserialize(&c).unwrap();
        assert_eq!(ids, vec![NodeId(2), NodeId(900)]);
    }
}
