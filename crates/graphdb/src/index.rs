//! Property indexes.
//!
//! A hash index maps `(label, property key)` → value → node ids, giving O(1)
//! exact-match seeks for queries like `MATCH (a:AS {asn: 2497})`. An ordered
//! view can be derived for range predicates. Indexes are maintained
//! incrementally by [`crate::graph::Graph`] on every mutation.
//!
//! Storage is partitioned for copy-on-write cloning: each index's entries
//! are split across power-of-two hash partitions held behind `Arc`s, so
//! cloning an [`IndexSet`] copies partition pointers and an index update
//! path-copies only the one partition holding the touched key. Partitions
//! reshard (double) when they average more than `RESHARD_TARGET` keys,
//! keeping the path-copy cost bounded as the graph grows — the same
//! discipline as [`crate::page::PAGE_SIZE`]-record pages in the node and
//! relationship tables. The on-disk layout is unchanged from the flat
//! store: a single key-sorted pair list per index.

use crate::graph::{NodeId, NodeRecord};
use crate::intern::Sym;
use crate::props::Props;
use crate::value::ValueKey;
use serde::{Content, Deserialize, Serialize};
use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, HashMap};
use std::hash::{Hash, Hasher};
use std::ops::Bound;
use std::sync::Arc;

/// Reshard when an index averages more than this many keys per partition.
///
/// Kept deliberately small: a partition copy deep-clones its `ValueKey`s
/// (string allocations), so the per-touched-partition write amplification
/// is what this bounds. At 8 keys a path-copy is about a microsecond even
/// from cold memory; the cost of the longer partition table (one `Arc`
/// bump per partition per graph clone, walked sequentially) is noise by
/// comparison.
const RESHARD_TARGET: usize = 8;

/// One hash index over `(label, key)`, hash-partitioned by value key.
#[derive(Debug, Clone)]
struct HashIndex {
    /// Power-of-two partition table; a key lives in partition
    /// `hash(key) & (len - 1)`.
    partitions: Vec<Arc<BTreeMap<ValueKey, Vec<NodeId>>>>,
    /// Total distinct keys across partitions, driving resharding.
    keys: usize,
}

impl Default for HashIndex {
    fn default() -> Self {
        HashIndex {
            partitions: vec![Arc::new(BTreeMap::new())],
            keys: 0,
        }
    }
}

fn partition_of(key: &ValueKey, count: usize) -> usize {
    // DefaultHasher::new() is fixed-keyed, so placement is deterministic
    // within a build; placement is never persisted (snapshots store the
    // flat sorted pair list), so cross-build determinism is not needed.
    let mut h = DefaultHasher::new();
    key.hash(&mut h);
    h.finish() as usize & (count - 1)
}

impl HashIndex {
    fn insert(&mut self, key: ValueKey, id: NodeId) {
        let p = partition_of(&key, self.partitions.len());
        let part = Arc::make_mut(&mut self.partitions[p]);
        let new_key = !part.contains_key(&key);
        let bucket = part.entry(key).or_default();
        if let Err(pos) = bucket.binary_search(&id) {
            bucket.insert(pos, id);
        }
        if new_key {
            self.keys += 1;
            if self.keys > self.partitions.len() * RESHARD_TARGET {
                self.reshard();
            }
        }
    }

    fn remove(&mut self, key: &ValueKey, id: NodeId) {
        let p = partition_of(key, self.partitions.len());
        // Probe through the shared reference first so a miss (unknown key
        // or id not in its bucket) never forces a partition copy.
        match self.partitions[p].get(key) {
            Some(bucket) if bucket.binary_search(&id).is_ok() => {}
            _ => return,
        }
        let bucket = Arc::make_mut(&mut self.partitions[p])
            .get_mut(key)
            .expect("checked above");
        let pos = bucket.binary_search(&id).expect("checked above");
        bucket.remove(pos);
        // The bucket stays (possibly empty): lookups on a once-indexed key
        // must keep answering `Some(vec![])`, not "no index".
    }

    fn get(&self, key: &ValueKey) -> Option<&Vec<NodeId>> {
        self.partitions[partition_of(key, self.partitions.len())].get(key)
    }

    /// Doubles the partition count, redistributing every key. O(index),
    /// but amortized O(1) per insert by the doubling schedule.
    fn reshard(&mut self) {
        let count = self.partitions.len() * 2;
        let mut parts: Vec<BTreeMap<ValueKey, Vec<NodeId>>> =
            (0..count).map(|_| BTreeMap::new()).collect();
        for part in &self.partitions {
            for (k, ids) in part.iter() {
                parts[partition_of(k, count)].insert(k.clone(), ids.clone());
            }
        }
        self.partitions = parts.into_iter().map(Arc::new).collect();
    }

    /// All `(key, ids)` pairs with keys in `[lo, hi]`, ordered by key.
    fn range_pairs(
        &self,
        lo: Bound<&ValueKey>,
        hi: Bound<&ValueKey>,
    ) -> Vec<(&ValueKey, &Vec<NodeId>)> {
        let mut pairs: Vec<(&ValueKey, &Vec<NodeId>)> = self
            .partitions
            .iter()
            .flat_map(|p| p.range::<ValueKey, _>((lo, hi)))
            .collect();
        pairs.sort_unstable_by(|a, b| a.0.cmp(b.0));
        pairs
    }
}

impl Serialize for HashIndex {
    /// Serializes the partition-merged, key-sorted pair list — exactly the
    /// layout the pre-partitioned store wrote (`{"entries": [[k, ids]…]}`),
    /// so snapshot files carry no partition geometry.
    fn serialize(&self) -> Content {
        let pairs = self.range_pairs(Bound::Unbounded, Bound::Unbounded);
        Content::Map(vec![("entries".to_string(), Serialize::serialize(&pairs))])
    }
}

impl Deserialize for HashIndex {
    fn deserialize(c: &Content) -> Result<Self, serde::Error> {
        let entries = c
            .get("entries")
            .ok_or_else(|| serde::Error::custom("index missing `entries`"))?;
        let pairs: Vec<(ValueKey, Vec<NodeId>)> = Deserialize::deserialize(entries)?;
        let mut idx = HashIndex::default();
        for (key, ids) in pairs {
            idx.bulk_insert(key, ids);
        }
        Ok(idx)
    }
}

impl HashIndex {
    /// Inserts a whole bucket (deserialization / backfill path). Keeps
    /// empty buckets, which `insert` would never create but `remove`
    /// leaves behind and snapshots faithfully persist.
    fn bulk_insert(&mut self, key: ValueKey, ids: Vec<NodeId>) {
        let p = partition_of(&key, self.partitions.len());
        let new_key = !self.partitions[p].contains_key(&key);
        Arc::make_mut(&mut self.partitions[p]).insert(key, ids);
        if new_key {
            self.keys += 1;
            if self.keys > self.partitions.len() * RESHARD_TARGET {
                self.reshard();
            }
        }
    }

    fn heap_bytes(&self) -> usize {
        self.partitions
            .iter()
            .map(|p| {
                p.iter()
                    .map(|(k, ids)| {
                        key_heap_bytes(k)
                            + ids.capacity() * std::mem::size_of::<NodeId>()
                            // BTreeMap node overhead, roughly.
                            + 48
                    })
                    .sum::<usize>()
            })
            .sum::<usize>()
            + self.partitions.capacity()
                * std::mem::size_of::<Arc<BTreeMap<ValueKey, Vec<NodeId>>>>()
    }
}

fn key_heap_bytes(k: &ValueKey) -> usize {
    std::mem::size_of::<ValueKey>()
        + match k {
            ValueKey::Str(s) => s.len(),
            ValueKey::List(items) => items.iter().map(key_heap_bytes).sum(),
            ValueKey::Map(entries) => entries
                .iter()
                .map(|(name, v)| name.len() + key_heap_bytes(v))
                .sum(),
            _ => 0,
        }
}

/// An ordered snapshot of an index, for repeated range scans.
#[derive(Debug, Clone)]
pub struct OrderedIndex {
    entries: Vec<(ValueKey, NodeId)>,
}

impl OrderedIndex {
    /// Nodes whose key falls in `[lo, hi]` under the given inclusivity.
    pub fn range(
        &self,
        lo: Option<(&ValueKey, bool)>,
        hi: Option<(&ValueKey, bool)>,
    ) -> Vec<NodeId> {
        self.entries
            .iter()
            .filter(|(k, _)| {
                let above = match lo {
                    None => true,
                    Some((l, true)) => k >= l,
                    Some((l, false)) => k > l,
                };
                let below = match hi {
                    None => true,
                    Some((h, true)) => k <= h,
                    Some((h, false)) => k < h,
                };
                above && below
            })
            .map(|(_, id)| *id)
            .collect()
    }

    /// Number of indexed entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if the index holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// The set of all indexes on a graph.
#[derive(Debug, Default, Clone, Serialize, Deserialize)]
pub struct IndexSet {
    // serde_json requires string keys for maps; keep a Vec of entries.
    indexes: Vec<((Sym, String), HashIndex)>,
    #[serde(skip)]
    lookup_cache: HashMap<(Sym, String), usize>,
}

impl IndexSet {
    fn slot(&self, label: Sym, key: &str) -> Option<usize> {
        if let Some(&i) = self.lookup_cache.get(&(label, key.to_string())) {
            return Some(i);
        }
        self.indexes
            .iter()
            .position(|((l, k), _)| *l == label && k == key)
    }

    /// Creates an index and backfills it from `entries`. Idempotent: an
    /// existing index is rebuilt from scratch.
    pub fn create(
        &mut self,
        label: Sym,
        key: &str,
        entries: impl Iterator<Item = (NodeId, ValueKey)>,
    ) {
        let mut idx = HashIndex::default();
        for (id, vk) in entries {
            idx.insert(vk, id);
        }
        match self.slot(label, key) {
            Some(i) => self.indexes[i].1 = idx,
            None => {
                self.lookup_cache
                    .insert((label, key.to_string()), self.indexes.len());
                self.indexes.push(((label, key.to_string()), idx));
            }
        }
    }

    /// Exact lookup; `None` if no such index.
    pub fn lookup(&self, label: Sym, key: &str, value: &ValueKey) -> Option<Vec<NodeId>> {
        let i = self.slot(label, key)?;
        Some(self.indexes[i].1.get(value).cloned().unwrap_or_default())
    }

    /// Range lookup over the index's ordered keys; `None` if no such index.
    pub fn range(
        &self,
        label: Sym,
        key: &str,
        lo: Option<(ValueKey, bool)>,
        hi: Option<(ValueKey, bool)>,
    ) -> Option<Vec<NodeId>> {
        let i = self.slot(label, key)?;
        let lo_bound = match &lo {
            None => Bound::Unbounded,
            Some((k, true)) => Bound::Included(k),
            Some((k, false)) => Bound::Excluded(k),
        };
        let hi_bound = match &hi {
            None => Bound::Unbounded,
            Some((k, true)) => Bound::Included(k),
            Some((k, false)) => Bound::Excluded(k),
        };
        let mut out = Vec::new();
        for (_, ids) in self.indexes[i].1.range_pairs(lo_bound, hi_bound) {
            out.extend(ids.iter().copied());
        }
        Some(out)
    }

    /// Does an index exist?
    pub fn exists(&self, label: Sym, key: &str) -> bool {
        self.slot(label, key).is_some()
    }

    /// All `(label, key)` pairs.
    pub fn list(&self) -> Vec<(Sym, String)> {
        self.indexes.iter().map(|(k, _)| k.clone()).collect()
    }

    /// Ordered snapshot for repeated range scans.
    pub fn ordered(&self, label: Sym, key: &str) -> Option<OrderedIndex> {
        let i = self.slot(label, key)?;
        let mut entries = Vec::new();
        for (k, ids) in self.indexes[i]
            .1
            .range_pairs(Bound::Unbounded, Bound::Unbounded)
        {
            for id in ids {
                entries.push((k.clone(), *id));
            }
        }
        Some(OrderedIndex { entries })
    }

    /// Load-time check (see `GraphPayload::validate` in `graph.rs`):
    /// every index hangs off one of the graph's labels, given as their
    /// validated `label_members`, and holds exactly the live nodes that
    /// carry its label and key, each under the key of its value, in
    /// sorted buckets. Anything else would leave an id that the
    /// maintenance hooks below can never remove.
    pub(crate) fn validate<'a>(
        &self,
        label_members: &[Vec<NodeId>],
        node: impl Fn(NodeId) -> Option<&'a NodeRecord>,
    ) -> Result<(), String> {
        let n_labels = label_members.len();
        for ((label, key), idx) in &self.indexes {
            let Some(members) = label_members.get(label.0 as usize) else {
                return Err(format!(
                    "index on `{key}` has label symbol {} outside the {n_labels}-label table",
                    label.0
                ));
            };
            let mut entries = 0;
            for (value, ids) in idx.partitions.iter().flat_map(|p| p.iter()) {
                if !ids.windows(2).all(|w| w[0] < w[1]) {
                    return Err(format!(
                        "index on `{key}`: the bucket of {value:?} is not sorted and distinct"
                    ));
                }
                let held = |id: &NodeId| {
                    node(*id).is_some_and(|n| {
                        n.labels.binary_search(label).is_ok()
                            && n.props.get(key).is_some_and(|v| ValueKey::of(v) == *value)
                    })
                };
                if let Some(id) = ids.iter().find(|id| !held(id)) {
                    return Err(format!(
                        "index on `{key}` names node {id} under {value:?}, but that node is \
                         absent or lacks the label or the value"
                    ));
                }
                entries += ids.len();
            }
            let keyed = members
                .iter()
                .filter(|&&id| node(id).is_some_and(|n| n.props.get(key).is_some()))
                .count();
            if entries != keyed {
                return Err(format!(
                    "index on `{key}` omits nodes that carry its label and key"
                ));
            }
        }
        Ok(())
    }

    // ---- maintenance hooks called by Graph ----

    pub(crate) fn on_node_added(&mut self, id: NodeId, labels: &[Sym], props: &Props) {
        for ((label, key), idx) in &mut self.indexes {
            if labels.contains(label) {
                if let Some(v) = props.get(key) {
                    idx.insert(ValueKey::of(v), id);
                }
            }
        }
    }

    pub(crate) fn on_node_removed(&mut self, id: NodeId, labels: &[Sym], props: &Props) {
        for ((label, key), idx) in &mut self.indexes {
            if labels.contains(label) {
                if let Some(v) = props.get(key) {
                    idx.remove(&ValueKey::of(v), id);
                }
            }
        }
    }

    pub(crate) fn on_prop_changed(
        &mut self,
        id: NodeId,
        labels: &[Sym],
        key: &str,
        old: Option<&crate::value::Value>,
        new: &crate::value::Value,
    ) {
        for ((label, ikey), idx) in &mut self.indexes {
            if ikey == key && labels.contains(label) {
                if let Some(old) = old {
                    idx.remove(&ValueKey::of(old), id);
                }
                if !new.is_null() {
                    idx.insert(ValueKey::of(new), id);
                }
            }
        }
    }

    // ---- copy-on-write accounting ----

    /// Total hash partitions across all indexes.
    pub(crate) fn partition_count(&self) -> usize {
        self.indexes
            .iter()
            .map(|(_, idx)| idx.partitions.len())
            .sum()
    }

    /// Partitions whose `Arc` is shared with another `IndexSet` clone.
    pub(crate) fn shared_partition_count(&self) -> usize {
        self.indexes
            .iter()
            .flat_map(|(_, idx)| idx.partitions.iter())
            .filter(|p| Arc::strong_count(p) > 1)
            .count()
    }

    /// Approximate heap bytes reachable from all indexes.
    pub(crate) fn heap_bytes(&self) -> usize {
        self.indexes
            .iter()
            .map(|((_, key), idx)| key.len() + idx.heap_bytes())
            .sum()
    }

    /// Materializes private copies of all shared partitions (bench-only;
    /// see [`crate::page::PagedVec::make_owned`]).
    pub(crate) fn make_owned(&mut self) {
        for (_, idx) in &mut self.indexes {
            for p in &mut idx.partitions {
                Arc::make_mut(p);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Value;

    #[test]
    fn create_lookup_roundtrip() {
        let mut set = IndexSet::default();
        let label = Sym(0);
        set.create(
            label,
            "asn",
            vec![
                (NodeId(1), ValueKey::of(&Value::Int(10))),
                (NodeId(2), ValueKey::of(&Value::Int(20))),
            ]
            .into_iter(),
        );
        assert_eq!(
            set.lookup(label, "asn", &ValueKey::of(&Value::Int(10))),
            Some(vec![NodeId(1)])
        );
        assert_eq!(
            set.lookup(label, "asn", &ValueKey::of(&Value::Int(99))),
            Some(vec![])
        );
        assert_eq!(
            set.lookup(Sym(1), "asn", &ValueKey::of(&Value::Int(10))),
            None
        );
    }

    #[test]
    fn duplicate_values_share_bucket() {
        let mut set = IndexSet::default();
        set.create(
            Sym(0),
            "cc",
            vec![
                (NodeId(1), ValueKey::of(&Value::from("JP"))),
                (NodeId(2), ValueKey::of(&Value::from("JP"))),
            ]
            .into_iter(),
        );
        assert_eq!(
            set.lookup(Sym(0), "cc", &ValueKey::of(&Value::from("JP"))),
            Some(vec![NodeId(1), NodeId(2)])
        );
    }

    #[test]
    fn ordered_view_ranges() {
        let mut set = IndexSet::default();
        set.create(
            Sym(0),
            "rank",
            (1..=5).map(|i| (NodeId(i), ValueKey::of(&Value::Int(i as i64 * 10)))),
        );
        let ord = set.ordered(Sym(0), "rank").unwrap();
        assert_eq!(ord.len(), 5);
        let k20 = ValueKey::of(&Value::Int(20));
        let k40 = ValueKey::of(&Value::Int(40));
        assert_eq!(
            ord.range(Some((&k20, false)), Some((&k40, true))),
            vec![NodeId(3), NodeId(4)]
        );
    }

    #[test]
    fn recreate_rebuilds() {
        let mut set = IndexSet::default();
        set.create(
            Sym(0),
            "x",
            vec![(NodeId(1), ValueKey::of(&Value::Int(1)))].into_iter(),
        );
        set.create(
            Sym(0),
            "x",
            vec![(NodeId(2), ValueKey::of(&Value::Int(2)))].into_iter(),
        );
        assert_eq!(
            set.lookup(Sym(0), "x", &ValueKey::of(&Value::Int(1))),
            Some(vec![])
        );
        assert_eq!(
            set.lookup(Sym(0), "x", &ValueKey::of(&Value::Int(2))),
            Some(vec![NodeId(2)])
        );
    }

    #[test]
    fn resharding_preserves_lookups_and_order() {
        let mut set = IndexSet::default();
        // Well past one reshard (RESHARD_TARGET keys/partition).
        set.create(
            Sym(0),
            "asn",
            (0..2000u64).map(|i| (NodeId(i), ValueKey::of(&Value::Int(i as i64)))),
        );
        let parts = set.partition_count();
        assert!(parts > 1, "expected reshard, still at {parts} partition(s)");
        assert!(parts.is_power_of_two());
        for probe in [0i64, 777, 1999] {
            assert_eq!(
                set.lookup(Sym(0), "asn", &ValueKey::of(&Value::Int(probe))),
                Some(vec![NodeId(probe as u64)])
            );
        }
        // Range output stays globally key-ordered despite hash placement.
        let lo = ValueKey::of(&Value::Int(100));
        let hi = ValueKey::of(&Value::Int(110));
        let ids = set
            .range(Sym(0), "asn", Some((lo, true)), Some((hi, false)))
            .unwrap();
        assert_eq!(ids, (100..110).map(NodeId).collect::<Vec<_>>());
    }

    #[test]
    fn clone_shares_partitions_and_updates_path_copy() {
        let mut set = IndexSet::default();
        set.create(
            Sym(0),
            "asn",
            (0..2000u64).map(|i| (NodeId(i), ValueKey::of(&Value::Int(i as i64)))),
        );
        let snap = set.clone();
        assert_eq!(set.shared_partition_count(), set.partition_count());
        set.on_prop_changed(
            NodeId(5),
            &[Sym(0)],
            "asn",
            Some(&Value::Int(5)),
            &Value::Int(100_000),
        );
        // At most two partitions (old key's, new key's) were copied.
        assert!(set.shared_partition_count() >= set.partition_count() - 2);
        assert_eq!(
            snap.lookup(Sym(0), "asn", &ValueKey::of(&Value::Int(5))),
            Some(vec![NodeId(5)]),
            "snapshot saw the mutation"
        );
        assert_eq!(
            set.lookup(Sym(0), "asn", &ValueKey::of(&Value::Int(5))),
            Some(vec![])
        );
    }

    #[test]
    fn serde_layout_is_flat_sorted_pairs() {
        let mut set = IndexSet::default();
        set.create(
            Sym(0),
            "asn",
            (0..600u64)
                .rev()
                .map(|i| (NodeId(i), ValueKey::of(&Value::Int(i as i64)))),
        );
        let c = serde::Serialize::serialize(&set);
        let back: IndexSet = serde::Deserialize::deserialize(&c).unwrap();
        assert_eq!(serde::Serialize::serialize(&back), c, "not canonical");
        assert_eq!(
            back.lookup(Sym(0), "asn", &ValueKey::of(&Value::Int(599))),
            Some(vec![NodeId(599)])
        );
        assert!(back.partition_count() > 1, "reload skipped resharding");
    }
}
